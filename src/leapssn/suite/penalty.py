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

A dense K also gets the block hook ``f_values``, which evaluates f at a
block of points from one product of K with the block.  Each value's
totals are still contiguous dot products, one per point, as in
``f_value``: a column-wise reduction over the block rounds worse, and the
finite differences of ``verify.grad_check`` divide that rounding by their
step.  A sparse K does not: its per-point f already costs O(nnz), and a
block version saved at most 0.02 s per benchmark job while its
temporaries raised the peak memory of the large meshes.  Without it the
harness's blocks hold 8 columns, not 50.

Every penalised quadratic gets ``model_error_bound(metric)``, a certified
model-error constant.  At s = Kx - r and d = y - x the model error
``f'(y) - f'(x) - H(x) d`` is ``c K' w`` with ``w_i = max(0, s_i + (Kd)_i)
- max(0, s_i) - chi_i (Kd)_i``, and ``|w_i| <= |(Kd)_i|``, since max(0, .)
is 1-Lipschitz and chi_i is one of its slopes at s_i.  In the metric R
that gives ``||c K' w||_* <= c lambda_max(K'K) / lambda_min(R) ||d||_R``,
so L <= c t / mu for a power of two t >= lambda_max(K'K) and the metric's
certified power of two mu <= lambda_min(R) (``Metric.lambda_min_bound``).
With a sparse K, K'K is the diagonal ``(K o K)' 1`` and t is the power of
two at or above its largest entry; with a dense K, t is certified by a
factor of ``t I - K'K`` (``hilbert.certified_eigenvalue_bound``).  Both
are computed on the bound's first call, not when the problem is built,
and t is kept with the problem; with c = 0 or no rows the bound is 0.

The mesh families build a mesh's penalty-free operators and its Metric
through :func:`shared`: the live problems on one mesh hold one of each,
so a gamma sweep assembles, factors and certifies each once.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np
import scipy.sparse as sp

from ..hilbert import Metric, certified_eigenvalue_bound, power_of_two_at_least
from ..problem import Problem

# (family, n, name) -> that mesh's object while a problem holds it; none
# is ever written in place, so sharing it changes no bit of any result
_SHARED = weakref.WeakValueDictionary()


def shared(family, n, name, build):
    """The live ``name`` of ``family`` at mesh size ``n``, else ``build()``."""
    obj = _SHARED.get((family, n, name))
    if obj is None:
        obj = _SHARED[family, n, name] = build()
    return obj


def shared_metric(family, n, build):
    """The live Metric of ``family`` at mesh size ``n``, else ``build()``'s."""
    return shared(family, n, "metric", lambda: Metric(build()))


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

        f_values = None
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

        # f_values works on the rows P = X' (one point per row), so each
        # point's penalty terms are a contiguous row of one k x l block,
        # clipped in place; it takes the O(n^2) quadratic part per point,
        # as f_value does, since a block product rounds it differently
        def f_values(X):
            P = np.ascontiguousarray(X.T)
            M = P @ K.T
            M -= r
            np.maximum(M, 0.0, out=M)
            return np.array([0.5 * float(p @ (Q @ p)) + float(q @ p) + const
                             + 0.5 * c * float(m @ m)
                             for p, m in zip(P, M)])

    @functools.cache
    def penalty_scale():
        """c t (see the module docstring), computed on the first call."""
        if c == 0.0 or K.shape[0] == 0:
            return 0.0
        if sp.issparse(K):
            top = float((KKt @ np.ones(K.shape[0])).max())
            return c * power_of_two_at_least(top) if top else 0.0
        return c * certified_eigenvalue_bound(K.T @ K, largest=True)

    def model_error_bound(metric):
        ct = penalty_scale()
        return ct / metric.lambda_min_bound() if ct else 0.0

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
                   f_values=f_values,
                   model_error_bound=model_error_bound,
                   hess_psd=True, **declarations)
