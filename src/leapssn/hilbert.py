"""Hilbert-space plumbing: operators, metrics and certified SPD solves.

Vectors are dense numpy arrays and the duality pairing is the plain dot
product.  :class:`Operator` is the only code that looks at how a symmetric
operator is stored (identity, dense ndarray or scipy sparse matrix).  It
gives the curvature ``H(x)``, the shifted system ``H + lambda R`` and the
metric ``R`` one interface: ``apply``, ``shift``, ``restrict``, a cached
certified ``solver()`` and a cached power-iteration ``norm_estimate()``.
``shift`` forms every shifted system, the composite Newton candidate's and
the eigenvalue certificates' (which read only its ``.A``) included.
Operators are applied, shifted and factored in the form they were given.

Certificate: one rule, the pivot floor, for dense and sparse operators.  A
factorization is accepted only when it is an LDL^T one without pivoting and
its smallest pivot clears ``n * PIVOT_FLOOR`` of its largest.  Dense
operators use Cholesky (pivots ``d_i = c_ii**2``); every sparse one, at any
size, uses SuperLU in symmetric mode with the diagonal pivot threshold at
zero, so no rows are exchanged and U's diagonal holds the pivots.  Each
``d_i`` is a diagonal entry of a Schur complement, so ``lambda_min <= min
d_i`` and ``max d_i <= lambda_max``: a pivot below the floor shows the
operator singular to working precision at any scale, whichever side of zero
rounding leaves that pivot, and a negative one shows it indefinite.  Every
solve, dense or sparse, also keeps a check on the returned solution: its
normwise backward error must be at most ``RESIDUAL_TOL`` (see
:func:`_checked`).  The solve of a factor (a metric's, say, but not a
shifted sparse rung's, see below) also takes a dim x k block of
right-hand sides, which SuperLU and ``cho_solve`` solve in one call; the
check then holds each column to that bound, and the block is certified
only when every column is.  An uncertifiable trial solve returns ``None``
so the caller can treat the step as non-computable.  One routine,
:func:`_certified_factor`, factors and certifies every operator.

Escalated rungs: the shifts ``H + lambda R`` of one sparse ``H``, of any
size, share one kept factor.  ``H`` keeps the solve of its last rung at
``lambda0`` whose factor cleared the pivot floor.  A later rung ``lambda >=
lambda0`` with the same certified metric ``R`` satisfies ``H + lambda R =
(H + lambda0 R) + (lambda - lambda0) R``, which lies above an SPD operator
in the Loewner order, so it is SPD without a factorization of its own.  It
is solved by conjugate gradients preconditioned with the kept factor, which
still refuses ``<Ap, p> <= 0`` and is still followed by the solution check.
When that fails (``_PCG_MAXIT`` reached, say), the kept factor is dropped
and the rung is factored and certified as above; its factor is kept in
turn.  The driver carries an ``H`` that repeats exactly into the next outer
iteration, kept factor included, and there the ladder starts below
``lambda0``.  Such a rung first has ``H`` itself factored (``lambda = 0``),
once per ``H``: when that factor clears the pivot floor, ``H`` is SPD, so
``H + lambda R`` is SPD for every ``lambda >= 0``, and every later rung of
``H`` is solved by PCG on the kept factor.  When it does not, that is
recorded and each rung below ``lambda0`` is factored as before.  Dense
operators factor every rung: Cholesky is cheap at their sizes, and PCG
on a kept dense factor took 1142 solves, not 1138, on the SVM benchmark.

Eigenvalue certificates use the same rule.  By Sylvester's law of
inertia ``A - s I`` is positive definite, so ``lambda_min(A) > s``, when
its LDL^T factor has positive pivots, and a factor that clears the pivot
floor certifies it at working precision (:func:`certifies_eigenvalue_bound`;
``s I - A`` likewise gives ``lambda_max(A) < s``).
:func:`certified_eigenvalue_bound` returns the power of two next to the
eigenvalue that such a factor certifies, so the value carries neither the
rounding of the estimate it starts from nor BLAS's.

A problem's inner product ``<x, y>_R = <Rx, y>`` is carried by a
:class:`Metric`, an operator that owns the Riesz solves ``R^{-1} g`` behind
dual norms, one vector or a block of columns at a time, and a cached
certified lower bound on ``lambda_min(R)``.  A broken metric raises
:class:`NumericalError` (the metric is part of the problem contract and
must be SPD).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

CG_TOL = 1e-12
# PCG on an escalated rung gives up after this many iterations and the rung
# is factored; at plate and TV sizes they cost about 1.4 factorizations
_PCG_MAXIT = 30
RESIDUAL_TOL = 1e-6
# Cholesky (or LDL^T) is refused when min d_i <= n * PIVOT_FLOOR * max d_i
PIVOT_FLOOR = np.finfo(float).eps
POWER_ITERS = 30


class NumericalError(RuntimeError):
    """A metric solve could not be certified."""


def cg_certified(matvec, b, maxiter, precond):
    """Preconditioned conjugate gradients with an indefiniteness certificate.

    Returns the solution of ``A x = b`` for symmetric positive definite
    ``A`` given by ``matvec``, or ``None`` when a direction with
    ``<Ap, p> <= 0`` is encountered (the operator is not positive definite)
    or the recursive residual fails to reach ``CG_TOL * ||b||`` within
    ``maxiter`` iterations.  ``precond`` applies an SPD approximation of
    ``A^{-1}``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxiter):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            return None
        a = rz / pAp
        x += a * p
        r -= a * Ap
        if np.sqrt(float(r @ r)) <= CG_TOL * bnorm:
            return x
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return None


def _pivots_clear_floor(d):
    return d.min() > d.shape[0] * PIVOT_FLOOR * d.max()


def _symmetric_splu(A):
    """Symmetric-mode SuperLU of ``A``: no row pivoting, so U's diagonal
    holds the LDL^T pivots of ``P A P^T``.  ``None`` on an exactly zero
    pivot."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError:
        return None


def _certified_factor(A, lasting=False):
    """The solve ``rhs -> x`` of a factor of ``A`` that clears the pivot
    floor, or ``None`` when none does.

    Dense ``A`` gets Cholesky of its upper triangle as given (pivots
    ``c_ii**2``), sparse ``A`` symmetric-mode SuperLU, whose U diagonal
    holds the pivots when no rows were exchanged.  Reading U makes
    SuperLU keep full copies of L and U, so a ``lasting`` factor (one
    kept as long as its problem) is computed again after the certificate
    and the read one dropped (keeping it cost the contact benchmark 4-10 MB).
    """
    if not sp.issparse(A):
        try:
            c = sla.cho_factor(A, check_finite=False)
        except (sla.LinAlgError, ValueError):
            return None
        if not _pivots_clear_floor(np.diag(c[0]) ** 2):
            return None
        return lambda rhs: sla.cho_solve(c, rhs, check_finite=False)
    lu = _symmetric_splu(A)
    if (lu is None or not np.array_equal(lu.perm_r, lu.perm_c)
            or not _pivots_clear_floor(lu.U.diagonal())):
        return None
    if lasting:
        del lu      # free it first, so the kept factor can reuse its memory
        lu = _symmetric_splu(A)

    def solve(rhs):
        with np.errstate(all="ignore"):
            return lu.solve(rhs)
    return solve


def _power_estimate(apply, dim):
    """``||M v||`` after ``POWER_ITERS`` steps of the power iteration of the
    linear map ``apply`` (M) from a fixed start, so never above ``||M||_2``;
    0 when an iterate is mapped to zero or ``apply`` returns ``None``.  The
    identity (``dim`` None) runs on one coordinate and gives exactly 1."""
    dim = dim or 1
    v = np.ones(dim) / np.sqrt(dim)
    # break symmetry for checkerboard-null operators
    v[0] += 0.5 / np.sqrt(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(POWER_ITERS):
        w = apply(v)
        if w is None:
            return 0.0
        with np.errstate(over="ignore"):
            est = float(np.linalg.norm(w))
        if est == math.inf and np.isfinite(w).all():    # ||w||^2 overflowed
            top = float(np.abs(w).max())
            est = top * float(np.linalg.norm(w / top))
        if est == 0.0:
            break
        v = w / est
    return est


def _norm_floor(A):
    """``max_i |a_ii|`` of ``A``: never above ``||A||_2``, since
    ``a_ii = <A e_i, e_i>``, and at least ``||A||_2 / n`` for SPD ``A``."""
    return float(np.abs(A.diagonal()).max(initial=0.0))


def _checked(A, anorm, x, rhs):
    """``x`` when it is finite and its normwise backward error as a solution
    of ``A x = rhs`` is at most ``RESIDUAL_TOL``; for a dim x k block
    ``rhs``, when every column of ``x`` passes as a solution for its column.

    The Rigal-Gaches backward error ``||A x - rhs|| / (||A|| ||x|| +
    ||rhs||)`` is the smallest relative perturbation of ``A`` and ``rhs``
    that ``x`` solves exactly.  ``anorm`` (see :func:`_norm_floor`) never
    exceeds ``||A||_2``, so the value tested never understates it.
    """
    if x is None or not np.all(np.isfinite(x)):
        return None
    axis = 0 if x.ndim == 2 else None    # column norms of a block
    r = A @ x
    r -= rhs
    res = np.linalg.norm(r, axis=axis)
    scale = (anorm * np.linalg.norm(x, axis=axis)
             + np.linalg.norm(rhs, axis=axis))
    return (x if np.all(np.isfinite(res) & (res <= RESIDUAL_TOL * scale))
            else None)


def _rung_solver(A, H, lam, R):
    """Solve with the rung ``A = H + lam R`` of the sparse operator ``H``.

    ``H._cache["rung"]`` keeps ``(lam0, R, solve)`` of its last rung whose
    factor cleared the pivot floor, and ``H._cache["posdef"]`` whether
    ``H``'s own factor (``lam0 = 0``) did.  The module docstring says when
    a rung is solved by PCG on the kept factor (whose generalized
    eigenvalues with ``A`` lie in ``[1, lam / lam0]`` when ``H`` is PSD)
    and when it is factored; a refused factor is never kept.  Without the
    ``posdef`` certificate plate at gamma = 1e5 and 1e6 saved one solve
    each, but the contact benchmark's peak memory rose by 10-18 MB.
    """
    anorm = _norm_floor(A)

    def solve(rhs):
        kept = H._cache.get("rung")
        if kept is None or kept[1] is not R or R.solver() is None:
            kept = None
        elif lam < kept[0] and "posdef" not in H._cache:
            kept = None
            H._cache.pop("rung")    # free it before H's own factor
            factor = _certified_factor(H.A)
            H._cache["posdef"] = factor is not None
            if factor is not None:
                H._cache["rung"] = kept = (0.0, R, factor)
        if kept is not None and (kept[0] <= lam or H._cache.get("posdef")):
            with np.errstate(all="ignore"):
                x = cg_certified(A.__matmul__, rhs, maxiter=_PCG_MAXIT,
                                 precond=kept[2])
            x = _checked(A, anorm, x, rhs)
            if x is not None:
                return x
        # drop the kept factor first, so this rung's can reuse its memory
        kept = factor = None
        H._cache.pop("rung", None)
        factor = _certified_factor(A)
        if factor is None:
            return None
        H._cache["rung"] = (lam, R, factor)
        return _checked(A, anorm, factor(rhs), rhs)
    return solve


class Operator:
    """A symmetric operator on R^n in one of three forms (``kind``).

    ``A`` may be ``None`` (identity), a dense ndarray or a scipy sparse
    matrix.  The form picks the certified solve: Cholesky for dense and
    symmetric-mode SuperLU for sparse (whose shifted rungs share a factor,
    see :func:`_rung_solver`); both check each solution by its backward
    error.
    """

    def __init__(self, A=None):
        if A is None:
            kind, apply, dim = "identity", (lambda v: v), None
        else:
            if sp.issparse(A):
                kind = "sparse"
            else:
                kind, A = "dense", np.asarray(A, dtype=float)
            apply, dim = A.__matmul__, A.shape[0]
        self.A, self.dim, self.kind, self.apply = A, dim, kind, apply
        self._cache = {}

    @staticmethod
    def of(A):
        """``A`` itself when it already is an Operator, else a new one."""
        return A if isinstance(A, Operator) else Operator(A)

    def shift(self, lam, R):
        """The operator ``A + lam * R`` (``R`` an Operator, e.g. a Metric)."""
        if self.kind == "sparse":
            B = (sp.identity(self.dim, format="csr") if R.kind == "identity"
                 else sp.csr_matrix(R.A))
            out = Operator((self.A + lam * B).tocsr())
            # the rungs of one H share its last certified factor; the
            # solve holds out.A but not out, so no reference cycle forms
            out._cache["solver"] = _rung_solver(out.A, self, lam, R)
            return out
        M = np.array(self.A, dtype=float, copy=True)
        if R.kind == "identity":
            M[np.diag_indices_from(M)] += lam
        else:
            M += lam * (R.A.toarray() if R.kind == "sparse" else R.A)
        return Operator(M)

    def restrict(self, free):
        """The principal block ``A_FF`` on the coordinates ``free``."""
        A = self.A.tocsr() if self.kind == "sparse" else self.A
        return Operator(A[np.ix_(free, free)])

    def stores(self, A):
        """True when this sparse operator holds ``A`` exactly: a CSR or CSC
        matrix of the same format and shape with equal ``indptr``,
        ``indices`` and ``data``.  An ``H`` that repeats keeps its cache,
        kept rung factor included.  The very matrix object this operator
        wraps is never taken: it may have been changed in place since."""
        B = self.A
        return (self.kind == "sparse" and sp.issparse(A) and A is not B
                and A.format in ("csr", "csc") and A.format == B.format
                and A.shape == B.shape
                and all(np.array_equal(getattr(A, name), getattr(B, name))
                        for name in ("indptr", "indices", "data")))

    def solver(self):
        """Cached certified solve ``rhs -> x``, or ``None`` when the operator
        is not positive definite.  The solve returns ``None`` for a
        right-hand side it cannot certify."""
        if "solver" not in self._cache:
            self._cache["solver"] = self._factor()
        return self._cache["solver"]

    def _factor(self, lasting=False):
        if self.kind == "identity":
            return lambda rhs: rhs
        factor = _certified_factor(self.A, lasting)
        if factor is None:
            return None
        A, anorm = self.A, _norm_floor(self.A)
        return lambda rhs: _checked(A, anorm, factor(rhs), rhs)

    def norm_estimate(self):
        """Deterministic power-iteration estimate of ``||A||_2`` (cached)."""
        if "norm" not in self._cache:
            self._cache["norm"] = _power_estimate(self.apply, self.dim)
        return self._cache["norm"]


def power_of_two_at_least(x):
    """The smallest power of two at least ``x > 0``."""
    mant, exp = math.frexp(x)
    return math.ldexp(1.0, exp - (mant == 0.5))


def certifies_eigenvalue_bound(A, s, largest=False):
    """True when a factor of ``A - s I`` clears the pivot floor, which
    certifies ``lambda_min(A) > s``; when ``largest``, of ``s I - A``, which
    certifies ``lambda_max(A) < s``.  ``A`` is a dense or sparse symmetric
    operator (an Operator or anything one accepts); the factor is dropped
    once its pivots have been read."""
    A = Operator.of(A)
    if A.kind == "identity":    # its one eigenvalue is 1
        return s > 1.0 if largest else s < 1.0
    if largest:             # s I - A is -A shifted by s
        A, s = Operator(-A.A), -s
    return _certified_factor(A.shift(-s, Operator()).A) is not None


def certified_eigenvalue_bound(A, largest=False):
    """The largest power of two ``mu`` that :func:`certifies_eigenvalue_bound`
    puts below ``lambda_min(A)``, or, when ``largest``, the smallest ``t``
    it puts above ``lambda_max(A)`` (``A`` positive semidefinite); ``None``
    when ``A`` has no certified solve (``lambda_min``) or no power of two
    is certified.

    The search starts at the power of two next to a one-sided estimate:
    inverse iteration with A's certified solve for ``lambda_min``, whose
    estimate never falls below it, and ``norm_estimate`` for
    ``lambda_max``, which never exceeds it.  It steps away from the
    eigenvalue by factors of two until a factor clears the floor, so each
    power it refuses lies within rounding of the eigenvalue or beyond it.
    """
    A = Operator.of(A)
    if largest:
        p, step = power_of_two_at_least(A.norm_estimate()), 2.0
    else:
        solve = A.solver()
        inverse = 0.0 if solve is None else _power_estimate(solve, A.dim)
        if inverse == 0.0:
            return None
        p, step = math.ldexp(1.0, math.frexp(1.0 / inverse)[1] - 1), 0.5
    while 0.0 < p < math.inf:
        if certifies_eigenvalue_bound(A, p, largest):
            return p
        p *= step
    return None


def solve_posdef(M, rhs):
    """Certified solve of ``M x = rhs`` for SPD ``M``, else ``None``.

    ``M`` is an Operator or anything an Operator accepts.
    """
    solve = Operator.of(M).solver()
    return None if solve is None else solve(rhs)


class Metric(Operator):
    """SPD operator R defining ``<x, y>_R`` and the dual norm.

    Built once per problem (the contact builders share one among the live
    problems on a mesh); its factorization is cached by ``solver`` and kept
    as long as the Metric.
    """

    def _factor(self):
        return super()._factor(lasting=True)

    def inner(self, x, y):
        return float(self.apply(x) @ y)

    def norm(self, x):
        return float(np.sqrt(max(0.0, self.inner(x, x))))

    def solve(self, g):
        """R^{-1} g with a cached factorization, for a vector g or a dim x k
        block of them; raises on a broken metric, or when any column's
        solve fails certification."""
        solve = self.solver()
        x = None if solve is None else solve(g)
        if x is None:
            raise NumericalError("metric is not positive definite "
                                 "or its solve failed certification")
        return x

    def lambda_min_bound(self):
        """A power of two at most ``lambda_min(R)``, certified by
        :func:`certified_eigenvalue_bound` (1 for the identity); cached, so
        a metric shared by several problems pays for it once.  Raises on a
        broken metric."""
        if "lambda_min" not in self._cache:
            mu = 1.0 if self.kind == "identity" else certified_eigenvalue_bound(self)
            if mu is None:
                raise NumericalError("metric is not positive definite "
                                     "or its solve failed certification")
            self._cache["lambda_min"] = mu
        return self._cache["lambda_min"]

    def dual_norm(self, g):
        """``sqrt(<g, R^{-1} g>)`` -- the norm in which tolerances are stated."""
        return float(np.sqrt(max(0.0, float(g @ self.solve(g)))))
