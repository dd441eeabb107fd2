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
the diagonal ``diag((K o K)' chi)`` and H is sparse (a dense Q is made
CSR); with a dense K it is ``Ka' Ka`` over the active rows ``Ka``, and H
is dense.  A dense K with no rows is a plain quadratic (``quadratic``).

Both forms get the ``hess_apply`` hook, whose column j is ``H(x_j) v_j``
for a block of base points x_j and directions v_j, so that the
verification harness forms no H for its directions.  With a dense K it is
``Q v_j + c K' (chi_j o K v_j)``: one product of K with the block [X V]
gives every column's K x_j and K v_j, and one more applies K', so a block
costs two passes over K whatever its bases, where forming H costs
O(l n^2) per column for l rows and n unknowns.  With a sparse K it is
``Q v_j + c ((K o K)' chi_j) o v_j``: three sparse products for the whole
block, where ``hess`` pays a scipy sparse sum and ``diags`` for each
column, several times the cost of a column of the block.

A dense K also gets the block hooks ``f_values``/``f_grads``, which
evaluate f and f' at a block of points from one product of K with the
block.  Each value's totals are still contiguous dot products, one per
point, as in ``f_value``: a column-wise reduction over the block rounds
worse, and the finite differences of ``verify.grad_check`` divide that
rounding by their step.  A sparse K does not: its per-point f and f'
already cost O(nnz), and block versions of them saved at most 0.02 s per
benchmark job while their temporaries raised the peak memory of the
large meshes.  Without them the harness's blocks hold 8 columns, not 50.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..problem import Problem


def penalised_quadratic(Q, q, const, K, r, c, **declarations) -> Problem:
    """The Problem for f above; ``declarations`` go to :class:`Problem`."""
    if sp.issparse(K):
        K = K.tocsr()
        Q = Q if sp.issparse(Q) else sp.csr_matrix(Q)
        if np.diff(K.indptr).max(initial=0) > 1:
            raise ValueError("a sparse K needs at most one entry per row")
        Kt = K.T.tocsr()
        KKt = Kt.power(2)

        def penalty_grad(s):
            return Kt @ np.maximum(0.0, s)

        def hess(x):
            chi = ((K @ x - r) >= 0.0).astype(float)
            return (Q + c * sp.diags(KKt @ chi)).tocsr()

        r_col = np.reshape(r, (-1, 1))

        def hess_apply(X, V):
            # column j is Q v_j + c ((K o K)' chi_j) o v_j: three sparse
            # products for the block, and no H formed; chi is made in
            # place over K X - r, and the diagonal term over (K o K)' chi
            chi = K @ X
            chi -= r_col
            np.greater_equal(chi, 0.0, out=chi)
            D = KKt @ chi
            D *= c
            D *= V
            D += Q @ V
            return D

        f_values = f_grads = None
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
