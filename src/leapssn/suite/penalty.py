"""Quadratics with a one-sided quadratic penalty: the contact, imaging
and SVM families and the academic ``partial_smooth_2d`` and ``quadratic``.

    f(x) = 0.5 <Qx, x> + <q, x> + const + (c/2) ||max(0, Kx - r)||^2

with Q symmetric positive semidefinite and c >= 0.  The gradient is
``Qx + q + c K' max(0, Kx - r)`` and the Newton derivative is the
active-set form ``Q + c K' diag(chi) K`` with ``chi = [Kx - r >= 0]``
(boundary case included), which is what makes semismooth Newton work on
these problems (Hintermueller, Ito & Kunisch, SIAM J. Optim. 2002).

K is either a scipy sparse matrix with at most one entry per row (a
bound on single unknowns, as in contact and the flux box) or a dense
ndarray (the SVM's sample rows).  With a sparse K, ``K' diag(chi) K`` is
the diagonal ``diag((K o K)' chi)``; with a dense K it is ``Ka' Ka`` over
the active rows ``Ka``, and H is dense.  A dense K with no rows is a
plain quadratic (``quadratic``).

A dense K also gets the ``hess_apply`` hook, whose column j is
``H(x_j) v_j = Q v_j + c K' (chi_j o K v_j)`` for a block of base points
x_j and directions v_j: one product of K with the block [X V] gives every
column's K x_j and K v_j, and one more applies K', so a block costs two
passes over K whatever its bases, where forming H costs O(l n^2) per base
for l rows and n unknowns.  The block hooks ``f_values``/``f_grads``
evaluate f and f' at a block of points from one product of K with the
block.  Each value's totals are still contiguous dot products, one per
point, as in ``f_value``: a column-wise reduction over the block rounds
worse, and the finite differences of ``verify.grad_check`` divide that
rounding by their step.  A sparse K gets no hooks: its H is Q plus a
diagonal, formed in O(nnz) and applied at the same cost as the hook would
be, and its per-point products cost O(nnz) too, so a block would save
little while its temporaries raised the peak memory of the large meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..problem import Problem


def penalised_quadratic(Q, q, const, K, r, c, **declarations) -> Problem:
    """The Problem for f above; ``declarations`` go to :class:`Problem`."""
    if sp.issparse(K):
        K = K.tocsr()
        if np.diff(K.indptr).max(initial=0) > 1:
            raise ValueError("a sparse K needs at most one entry per row")
        Kt = K.T.tocsr()
        KKt = Kt.power(2)

        def penalty_grad(s):
            return Kt @ np.maximum(0.0, s)

        def hess(x):
            chi = ((K @ x - r) >= 0.0).astype(float)
            return (Q + c * sp.diags(KKt @ chi)).tocsr()

        hess_apply = f_values = f_grads = None
    else:
        # f, f' and f_decrease take Q as given (the SVM's diagonal stays
        # sparse); H is dense here, so hess and hess_apply densify it
        Qd = Q.toarray() if sp.issparse(Q) else Q

        def penalty_grad(s):
            act = s > 0.0
            return K[act].T @ s[act]

        def hess(x):
            Ka = K[(K @ x - r) >= 0.0]
            return Qd + c * (Ka.T @ Ka)

        def hess_apply(X, V):
            # column j is H(X[:, j]) V[:, j]: one product [X V]'K' gives
            # each column's K x and K v as rows, and in row form
            # (V'K' o chi') K runs faster in BLAS than K'(chi o KV)
            k = V.shape[1]
            M = np.vstack([X.T, V.T]) @ K.T
            KV = M[k:]
            KV[~((M[:k] - r) >= 0.0)] = 0.0
            return Qd @ V + c * (KV @ K).T

        # the block hooks work on the rows P = X' (one point per row), so
        # each point's penalty terms are a contiguous row of one k x l
        # block, clipped in place; f_values takes the O(n^2) quadratic part
        # per point, as f_value does, since a block product rounds it
        # differently
        def penalty_rows(X):
            P = np.ascontiguousarray(X.T)
            M = P @ K.T
            M -= r
            return P, np.maximum(M, 0.0, out=M)

        def f_values(X):
            P, M = penalty_rows(X)
            return np.array([0.5 * float(p @ (Q @ p)) + float(q @ p) + const
                             + 0.5 * c * float(m @ m)
                             for p, m in zip(P, M)])

        def f_grads(X):
            P, M = penalty_rows(X)
            return (P @ Q + q + c * (M @ K)).T

    def f_value(x):
        m = np.maximum(0.0, K @ x - r)
        return (0.5 * float(x @ (Q @ x)) + float(q @ x) + const
                + 0.5 * c * float(m @ m))

    def f_grad(x):
        return Q @ x + q + c * penalty_grad(K @ x - r)

    def f_decrease(x, y):
        # f(x) - f(y) without forming the two near-equal totals; y's
        # penalty argument is taken as s + Kd, the linear move from x's
        d = y - x
        s = K @ x - r
        m = np.maximum(0.0, s)
        mp = np.maximum(0.0, s + K @ d)
        return (-float(d @ (Q @ x)) - 0.5 * float(d @ (Q @ d)) - float(q @ d)
                + 0.5 * c * float(((m - mp) * (m + mp)).sum()))

    return Problem(dim=Q.shape[0], f_value=f_value, f_grad=f_grad, hess=hess,
                   f_decrease=f_decrease, hess_apply=hess_apply,
                   f_values=f_values, f_grads=f_grads,
                   hess_psd=True, **declarations)
