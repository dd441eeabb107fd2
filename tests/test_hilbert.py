"""Metric geometry and the certified SPD solve."""

import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from leapssn import hilbert
from leapssn import (Metric, NumericalError, Operator, Problem, smooth_step,
                     solve_posdef)
from leapssn.hilbert import cg_certified
from leapssn.suite import laplacian_2d
from leapssn.suite.obstacle import plate_problem


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_identity_metric_basics():
    m = Metric()
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    assert m.kind == "identity"
    assert m.inner(x, y) == 11.0
    assert m.norm(x) == pytest.approx(np.sqrt(5.0))
    assert m.dual_norm(x) == pytest.approx(np.sqrt(5.0))
    assert np.array_equal(m.apply(x), x)


def test_the_identity_norm_estimate_is_one():
    assert Metric().norm_estimate() == 1.0
    assert Operator().norm_estimate() == 1.0


@pytest.mark.parametrize("s, largest, certified", [
    (0.5, False, True), (1.0, False, False),
    (2.0, True, True), (1.0, True, False),
])
def test_the_identity_certifies_the_bounds_of_its_eigenvalue_one(
        s, largest, certified):
    """lambda_min > s exactly when s < 1, lambda_max < s when s > 1, with
    no factorization, as for the dense identity."""
    assert hilbert.certifies_eigenvalue_bound(Metric(), s, largest) is certified
    assert hilbert.certifies_eigenvalue_bound(np.eye(3), s, largest) is certified


def test_the_identity_certified_eigenvalue_bounds_are_its_strict_powers():
    """The powers of two next to the eigenvalue 1 on each side, as for the
    dense identity; the metric's own lower bound stays 1."""
    for largest, bound in ((False, 0.5), (True, 2.0)):
        assert hilbert.certified_eigenvalue_bound(Metric(), largest) == bound
        assert hilbert.certified_eigenvalue_bound(np.eye(3), largest) == bound
    assert Metric().lambda_min_bound() == 1.0


def test_dense_metric_norms_against_direct_linear_algebra():
    R = np.array([[2.0, 0.5], [0.5, 1.0]])
    m = Metric(R)
    assert m.kind == "dense"
    x = np.array([1.0, -3.0])
    g = np.array([0.7, 0.2])
    assert m.inner(x, x) == pytest.approx(x @ R @ x)
    assert m.norm(x) == pytest.approx(np.sqrt(x @ R @ x))
    # dual norm is the R^{-1}-weighted norm
    assert m.dual_norm(g) == pytest.approx(np.sqrt(g @ np.linalg.solve(R, g)))
    assert np.allclose(m.solve(g), np.linalg.solve(R, g))


def test_sparse_and_dense_metrics_agree():
    n = 40
    R = _spd(n, seed=0)
    md = Metric(R)
    ms = Metric(sp.csr_matrix(R))
    # sparse input is applied and factored as given, whatever its size
    assert ms.kind == "sparse"
    g = np.random.default_rng(1).standard_normal(n)
    assert md.dual_norm(g) == pytest.approx(ms.dual_norm(g), rel=1e-10)
    assert np.allclose(md.solve(g), ms.solve(g), atol=1e-10)


def test_dense_metric_refuses_a_near_singular_factorization():
    # Cholesky completes, but the pivot ratio 1e-20 is far below n * eps
    with pytest.raises(NumericalError):
        Metric(np.diag([1.0, 1e-20])).solve(np.ones(2))


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_indefinite_metric_raises_in_every_representation(kind):
    n = 3
    D = sp.diags(np.r_[np.ones(n - 1), -1.0]).tocsr()
    R = {"dense": D.toarray(), "sparse": D}[kind]
    metric = Metric(R)
    assert metric.kind == kind
    with pytest.raises(NumericalError):
        metric.solve(np.ones(n))


def _banded_spd(n, diag):
    """Tridiagonal SPD matrix: diag on the diagonal, -1 off it."""
    return sp.diags([-np.ones(n - 1), np.full(n, diag), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsr()


# a large size is 2001 unknowns: no representation may change route by size
LARGE = 2001
H_FORMS = {
    "dense": (40, lambda A: A.toarray()),
    "dense_large": (LARGE, lambda A: A.toarray()),
    "sparse_small": (40, lambda A: A),
    "sparse_large": (LARGE, lambda A: A),
}
R_FORMS = {
    "identity": lambda R: None,
    "dense": lambda R: R.toarray(),
    "sparse": lambda R: R,
}


# a large dense H is paired with the sparse metric only: a dense H shifted by
# a sparse R of that size is the costliest mixed shift
FORMS = [(h, r) for h in H_FORMS if h != "dense_large" for r in R_FORMS]
FORMS.append(("dense_large", "sparse"))


@pytest.mark.parametrize("h_form,r_form", FORMS)
def test_smooth_step_agrees_across_representations(h_form, r_form):
    n, as_h = H_FORMS[h_form]
    H, R = _banded_spd(n, 3.0), _banded_spd(n, 2.5)
    metric = Metric(R_FORMS[r_form](R))
    if r_form == "identity":
        R = sp.identity(n, format="csr")
    prob = Problem(dim=n, f_value=lambda x: 0.0, f_grad=lambda x: H @ x,
                   hess=lambda x: H, metric=metric, hess_psd=True)
    x = np.linspace(-1.0, 1.0, n)
    g = H @ x + 1.0
    lam = 0.75
    res = smooth_step(prob, x, g, as_h(H), lam)
    assert res.computable
    M = (H + lam * R).tocsc()
    d = res.x_plus - x
    assert np.linalg.norm(M @ d + g) <= 1e-9 * np.linalg.norm(g)


@pytest.mark.parametrize("h_form", [h for h in H_FORMS if h != "dense_large"])
def test_indefinite_curvature_is_refused_in_every_representation(h_form):
    # no caller's promise is needed: each path certifies definiteness itself
    n, as_h = H_FORMS[h_form]
    D = sp.diags(np.r_[np.ones(n - 1), -1.0]).tocsr()
    prob = Problem(dim=n, f_value=lambda x: 0.0, f_grad=lambda x: D @ x,
                   hess=lambda x: D, hess_psd=False)
    g = np.ones(n)
    assert solve_posdef(Operator(as_h(D)), -g) is None
    assert not smooth_step(prob, np.zeros(n), g, as_h(D), 0.5).computable


def test_solve_posdef_matches_numpy_on_spd():
    A = _spd(12, seed=4)
    b = np.arange(12, dtype=float)
    x = solve_posdef(A, b)
    assert x is not None
    assert np.allclose(A @ x, b, atol=1e-8)


def test_a_dense_operator_is_factored_as_given():
    # Cholesky reads A's upper triangle and no symmetrised copy is made:
    # with a rounding-sized asymmetry below the diagonal the certified
    # solve is cho_solve(cho_factor(A), b) bit for bit, and its check
    # still holds it against all of A
    A = _spd(12, seed=4)
    A[7, 2] *= 1.0 + 1e-13
    b = np.arange(12, dtype=float)
    x = solve_posdef(A, b)
    assert x is not None
    assert np.array_equal(x, sla.cho_solve(sla.cho_factor(A), b))


def test_solve_posdef_rejects_indefinite_and_singular():
    assert solve_posdef(np.diag([1.0, -1.0]), np.ones(2)) is None
    assert solve_posdef(np.diag([1.0, 0.0]), np.ones(2)) is None
    # Cholesky completes here, but the pivot ratio 1e-20 is far below n * eps
    assert solve_posdef(np.diag([1.0, 1e-20]), np.ones(2)) is None
    # the same floor on the sparse path, where SuperLU completes too
    assert solve_posdef(sp.diags([1.0, 1e-20]).tocsr(), np.ones(2)) is None


def test_solve_posdef_pivot_floor_is_relative_to_scale():
    A = 1e-30 * _spd(12, seed=4)
    b = np.arange(12, dtype=float)
    x = solve_posdef(A, b)
    assert x is not None
    assert np.allclose(A @ x, b, rtol=0, atol=1e-8 * np.linalg.norm(b))


def test_dense_and_sparse_paths_agree_on_singular_plate_system():
    # Plain Newton's clamped Hessian at iteration 1 of the stiff plate is
    # singular; both certificates must refuse it, whatever the BLAS rounding.
    prob = plate_problem(47, 1e6)
    x = prob.start_point(None)
    d = solve_posdef(prob.hess(x), -prob.f_grad(x))
    assert d is not None
    x = x + d
    H, g = prob.hess(x), prob.f_grad(x)
    assert sp.issparse(H)
    assert solve_posdef(H, -g) is None
    assert solve_posdef(H.toarray(), -g) is None


def test_solve_posdef_sparse_path():
    A = sp.csr_matrix(_spd(30, seed=5))
    b = np.ones(30)
    x = solve_posdef(A, b)
    assert x is not None
    assert np.allclose(A @ x, b, atol=1e-8)
    # sparse saddle matrix must be refused, not mis-solved
    S = sp.csr_matrix(np.diag([1.0, -2.0, 3.0]))
    assert solve_posdef(S, np.ones(3)) is None


def test_a_callable_operator_or_metric_is_refused():
    # an operator is stored as a matrix; a matvec callable is not one
    A = _spd(4, seed=2)
    with pytest.raises(TypeError):
        Operator(lambda v: A @ v)
    with pytest.raises(TypeError):
        Metric(lambda v: A @ v)


def test_a_wrong_dense_solve_is_refused(monkeypatch):
    # the dense path checks each solution by its backward error, as the
    # sparse one does: a finite but wrong Cholesky solve is not returned
    A, b = _spd(12, seed=4), np.arange(12, dtype=float)
    assert solve_posdef(A, b) is not None
    cho_solve = hilbert.sla.cho_solve
    monkeypatch.setattr(hilbert.sla, "cho_solve",
                        lambda *args, **kw: cho_solve(*args, **kw) + 1e-3)
    assert solve_posdef(A, b) is None


@pytest.mark.parametrize("kind", ["identity", "dense", "sparse"])
def test_a_block_metric_solve_matches_its_column_solves(kind):
    n, k = 40, 5
    metric = Metric(R_FORMS[kind](_banded_spd(n, 3.0)))
    G = (np.random.default_rng(6).standard_normal((n, k))
         * np.logspace(-3, 3, k))
    X = metric.solve(G)
    assert X.shape == (n, k)
    for j in range(k):
        x = metric.solve(G[:, j])
        assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)
    if kind != "identity":      # the identity metric has no solve to certify
        for bad in (np.nan, np.inf):
            B = G.copy()
            B[7, 3] = bad
            with pytest.raises(NumericalError):
                metric.solve(B)


def test_a_block_solve_is_certified_column_by_column(monkeypatch):
    # a wrong small column hides in the block's Frobenius-norm residual,
    # but not in its own backward error
    R = _banded_spd(40, 3.0).toarray()
    G = np.column_stack([1e8 * np.ones(40), np.ones(40)])
    metric = Metric(R)
    assert metric.solve(G).shape == G.shape
    cho_solve = hilbert.sla.cho_solve

    def wrong_last_column(*args, **kw):
        x = np.array(cho_solve(*args, **kw))
        x[:, -1] += 1e-3
        return x
    monkeypatch.setattr(hilbert.sla, "cho_solve", wrong_last_column)
    X = cho_solve(hilbert.sla.cho_factor(R), G)
    X[:, -1] += 1e-3
    blockwise = (np.linalg.norm(R @ X - G) / (hilbert._norm_floor(R)
                 * np.linalg.norm(X) + np.linalg.norm(G)))
    assert blockwise <= hilbert.RESIDUAL_TOL
    with pytest.raises(NumericalError):
        metric.solve(G)


def _jacobi(A):
    d = np.diag(A).copy()
    return lambda r: r / d


def test_cg_certified_solves_and_certifies():
    A = _spd(15, seed=6)
    b = np.random.default_rng(7).standard_normal(15)
    x = cg_certified(lambda v: A @ v, b, maxiter=150, precond=_jacobi(A))
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_cg_certified_refuses_indefinite_operator():
    D = np.diag([1.0, -1.0, 2.0])
    assert cg_certified(lambda v: D @ v, np.array([1.0, 1.0, 1.0]),
                        maxiter=30, precond=lambda r: r) is None


def test_cg_certified_zero_rhs():
    A = _spd(4, seed=8)
    x = cg_certified(lambda v: A @ v, np.zeros(4), maxiter=40,
                     precond=_jacobi(A))
    assert np.array_equal(x, np.zeros(4))


# ------------------------------------------------ escalated rungs of one H


def test_escalated_rung_by_pcg_agrees_with_its_direct_solve(counted):
    prob = plate_problem(65, 1e4)
    x = prob.start_point(None)
    H = Operator(prob.hess(x))
    R = prob.metric
    R.solver()              # the metric's own factorizations come first
    g = prob.f_grad(x)
    base = counted["splu"]
    assert H.kind == "sparse"
    assert solve_posdef(H.shift(1.0, R), -g) is not None
    steps = {lam: solve_posdef(H.shift(lam, R), -g) for lam in (2.0, 8.0)}
    assert counted["splu"] == base + 1 and counted["pcg"] == 2
    for lam, d in steps.items():
        A = (H.A + lam * R.A).tocsr()
        direct = Operator(A).solver()(-g)
        # the exact step to working accuracy: refine with a pivoting LU
        lu, exact = spla.splu(A.tocsc()), direct.copy()
        for _ in range(4):
            exact += lu.solve(-g - A @ exact)
        assert np.linalg.norm(d - exact) <= 1e-8 * np.linalg.norm(exact)
        if lam == 2.0:      # at 8 the direct solve itself is 1.7e-8 off
            assert (np.linalg.norm(d - direct)
                    <= 1e-8 * np.linalg.norm(direct))


def test_a_small_sparse_operator_takes_the_sparse_path(counted):
    # 30 sparse unknowns are factored by SuperLU, not densified for
    # Cholesky, and an escalated rung reuses that factor through PCG
    n = 30
    H = Operator(_banded_spd(n, 3.0))
    R, rhs = Metric(), np.ones(n)
    for lam in (1.0, 2.0):
        x = solve_posdef(H.shift(lam, R), rhs)
        M = (H.A + lam * sp.identity(n)).tocsr()
        assert np.linalg.norm(M @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
    assert counted == {"splu": 1, "cholesky": 0, "pcg": 1, "pcg_failed": 0}
    assert H._cache["rung"][0] == 1.0
    assert solve_posdef(H.A, rhs) is not None
    assert counted["splu"] == 2 and counted["cholesky"] == 0


def test_a_refused_rung_factor_is_never_a_preconditioner(counted):
    n = 50
    H = Operator(sp.diags(np.r_[np.ones(n - 1), -1.0]).tocsr())
    R, rhs = Metric(), np.ones(n)
    for lam in (0.5, 1.0):          # H + lam I is indefinite, then singular
        assert solve_posdef(H.shift(lam, R), rhs) is None
    assert counted["pcg"] == 0 and H._cache.get("rung") is None
    x = solve_posdef(H.shift(2.0, R), rhs)      # factored, not preconditioned
    assert counted["pcg"] == 0 and counted["splu"] == 3
    assert np.allclose(x, rhs / np.r_[np.full(n - 1, 3.0), 1.0])
    x = solve_posdef(H.shift(4.0, R), rhs)      # now the lam = 2 factor serves
    assert counted["pcg"] == 1 and counted["splu"] == 3
    assert np.allclose(x, rhs / np.r_[np.full(n - 1, 5.0), 3.0])


def test_a_stalled_pcg_rung_falls_back_to_one_factorization(counted):
    # generalized eigenvalues spread over [1, 5e7], many more distinct ones
    # than _PCG_MAXIT: PCG cannot reach CG_TOL in time, so the rung is
    # factored and its factor is kept instead
    n = 20 * hilbert._PCG_MAXIT
    h = np.logspace(-4.0, 4.0, n)
    H = Operator(sp.diags(h).tocsr())
    R, rhs = Metric(), np.ones(n)
    assert solve_posdef(H.shift(1e-4, R), rhs) is not None
    assert counted["splu"] == 1
    x = solve_posdef(H.shift(1e4, R), rhs)
    assert counted == {"splu": 2, "cholesky": 0, "pcg": 1, "pcg_failed": 1}
    assert np.allclose(x, rhs / (h + 1e4), rtol=1e-12, atol=0)
    assert H._cache["rung"][0] == 1e4


def test_a_carried_h_is_certified_once_and_serves_lower_rungs(counted):
    # a rung below the kept factor's lam0 (the next outer iteration's,
    # after lambda halved) has H itself factored once; H clears the pivot
    # floor, so every lower rung is SPD and is solved by PCG on H's factor
    n = 50
    H = Operator(_banded_spd(n, 3.0))
    R, rhs = Metric(), np.ones(n)
    assert solve_posdef(H.shift(1.0, R), rhs) is not None
    assert counted["splu"] == 1 and "posdef" not in H._cache
    for lam in (0.5, 0.25, 2.0**-20, 4.0):
        x = solve_posdef(H.shift(lam, R), rhs)
        M = (H.A + lam * sp.identity(n)).tocsr()
        assert np.linalg.norm(M @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
    assert counted == {"splu": 2, "cholesky": 0, "pcg": 4, "pcg_failed": 0}
    assert H._cache["posdef"] and H._cache["rung"][0] == 0.0


def test_a_refused_h_certificate_falls_back_to_the_rung_factor(counted):
    # H is singular, so its own factor is refused: that is recorded, never
    # retried, and each rung below the kept lam0 is factored as before
    n = 50
    H = Operator(sp.diags(np.r_[np.ones(n - 1), 0.0]).tocsr())
    R, rhs = Metric(), np.ones(n)
    assert solve_posdef(H.shift(1.0, R), rhs) is not None
    x = solve_posdef(H.shift(0.5, R), rhs)
    assert counted == {"splu": 3, "cholesky": 0, "pcg": 0, "pcg_failed": 0}
    assert np.allclose(x, rhs / np.r_[np.full(n - 1, 1.5), 0.5])
    assert not H._cache["posdef"] and H._cache["rung"][0] == 0.5
    assert solve_posdef(H.shift(0.25, R), rhs) is not None
    assert counted["splu"] == 4 and counted["pcg"] == 0
    assert solve_posdef(H.shift(0.5, R), rhs) is not None   # above lam0
    assert counted["splu"] == 4 and counted["pcg"] == 1


def test_stores_is_exact_equality_of_a_sparse_h():
    prob = plate_problem(17, 1e4)
    A = prob.hess(prob.start_point(None))
    H = Operator(A)
    assert H.stores(A.copy())
    B = A.copy()
    B.data[7] = np.nextafter(B.data[7], np.inf)
    assert not H.stores(B)
    assert not H.stores(A.tocsc()) and not H.stores(A.toarray())
    assert not H.stores(A)      # its own matrix may have changed in place
    assert not Operator(A.toarray()).stores(A)


def test_a_backward_stable_metric_solve_is_certified():
    # R 1 = h^2 1 is tiny next to ||R|| ||1|| (the rigid translation lies
    # in the bending operator's kernel), so at n = 193 the certified
    # factor's solve has a relative residual near 6e-6: a
    # residual-over-rhs test refuses it although its normwise backward
    # error is near 1e-16
    R = plate_problem(193, 1e4).metric
    ones = np.ones(R.dim)
    b = R.A @ ones
    x = R.solve(b)
    backward = (np.linalg.norm(R.A @ x - b)
                / (hilbert._norm_floor(R.A) * np.linalg.norm(x)
                   + np.linalg.norm(b)))
    assert backward <= 1e-14
    assert np.max(np.abs(x - ones)) <= 1e-4


def test_a_solved_rung_is_freed_without_the_cycle_collector():
    n = 50
    H = Operator(_banded_spd(n, 3.0))
    gc.disable()
    try:
        for lam in (1.0, 2.0):      # one factored rung, one PCG rung
            rung = H.shift(lam, Metric())
            assert solve_posdef(rung, np.ones(n)) is not None
            ref = weakref.ref(rung)
            del rung
            assert ref() is None
    finally:
        gc.enable()


def _plate_metric(n):
    """plate's metric R = A + h^2 I at mesh size n, and h^2: A is singular
    (its kernel is the rigid motions), so lambda_min(R) = h^2."""
    return plate_problem(n, 1e4).metric.A, 1.0 / (n - 1) ** 2


def _spectrum(evals, seed=3):
    """A dense symmetric matrix with the eigenvalues ``evals``."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
    A = (Q * evals) @ Q.T
    return 0.5 * (A + A.T)


def test_eigenvalue_certificate_accepts_mu_below_lambda_min():
    R, h2 = _plate_metric(9)
    A = _spectrum(np.geomspace(1.0, 10.0, 8))
    for mu in (0.0, h2 / 8, h2 / 2, 0.99 * h2):
        assert hilbert.certifies_eigenvalue_bound(R, mu)
    for mu in (-1.0, 0.5, 0.999):
        assert hilbert.certifies_eigenvalue_bound(A, mu)
    for t in (10.01, 16.0):
        assert hilbert.certifies_eigenvalue_bound(A, t, largest=True)


def test_eigenvalue_certificate_refuses_mu_at_or_above_lambda_min():
    # R - h^2 I is plate's singular A; A's rounded spectrum [1, 10] is
    # probed off its ends, where the verdict does not depend on rounding
    R, h2 = _plate_metric(9)
    for mu in (h2, 1.01 * h2, 4.0 * h2, 1.0):
        assert not hilbert.certifies_eigenvalue_bound(R, mu)
    A = _spectrum(np.geomspace(1.0, 10.0, 8))
    for mu in (1.001, 2.0, 11.0):
        assert not hilbert.certifies_eigenvalue_bound(A, mu)
    for t in (1.0, 9.99):
        assert not hilbert.certifies_eigenvalue_bound(A, t, largest=True)


def test_eigenvalue_bound_is_the_power_of_two_next_to_the_eigenvalue():
    # plate: lambda_min(R) = h^2 = 2^-6 itself is refused, so 2^-7
    R, h2 = _plate_metric(9)
    assert h2 == 2.0 ** -6
    assert hilbert.certified_eigenvalue_bound(R) == 2.0 ** -7
    A = _spectrum(np.array([0.3, 1.0, 5.0, 7.5]))
    assert hilbert.certified_eigenvalue_bound(A) == 0.25
    assert hilbert.certified_eigenvalue_bound(A, largest=True) == 8.0
    # an indefinite matrix has no certified solve, hence no lambda_min bound
    assert hilbert.certified_eigenvalue_bound(np.diag([1.0, -1.0])) is None


@pytest.mark.parametrize("largest", [False, True], ids=["min", "max"])
def test_dense_and_sparse_eigenvalue_certificates_agree(largest):
    # the 5-point Laplacian on 7 x 7 nodes: lambda_min = 4 - 4 cos(pi/8)
    # = 0.304 and lambda_max = 4 + 4 cos(pi/8) = 7.696
    S = laplacian_2d(7)
    D = S.toarray()
    value = hilbert.certified_eigenvalue_bound(S, largest)
    assert value == hilbert.certified_eigenvalue_bound(D, largest)
    assert value == (8.0 if largest else 0.25)
    for s in (0.125, 0.25, 0.3, 0.31, 0.5, 4.0, 7.5, 7.69, 7.7, 8.0):
        assert (hilbert.certifies_eigenvalue_bound(S, s, largest)
                == hilbert.certifies_eigenvalue_bound(D, s, largest)), s


def test_the_metric_caches_its_lambda_min_certificate(monkeypatch):
    R, _ = _plate_metric(9)
    metric = Metric(R)
    calls = []
    certify = hilbert.certifies_eigenvalue_bound

    def counted(*args, **kwargs):
        calls.append(args[1])
        return certify(*args, **kwargs)

    monkeypatch.setattr(hilbert, "certifies_eigenvalue_bound", counted)
    assert metric.lambda_min_bound() == 2.0 ** -7
    assert calls == [2.0 ** -6, 2.0 ** -7]
    assert metric.lambda_min_bound() == 2.0 ** -7 and len(calls) == 2
    assert Metric().lambda_min_bound() == 1.0 and len(calls) == 2
    broken = Metric(sp.diags(np.r_[1.0, -1.0, np.ones(6)]).tocsr())
    with pytest.raises(NumericalError):
        broken.lambda_min_bound()


def test_a_power_estimate_is_zero_on_a_refused_or_vanishing_map():
    assert hilbert._power_estimate(lambda v: None, 3) == 0.0
    assert hilbert._power_estimate(lambda v: 0.0 * v, 3) == 0.0
    # nilpotent: the second iterate is mapped to zero
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hilbert._power_estimate(N.__matmul__, 2) == 0.0
    assert hilbert._power_estimate(lambda v: 2.0 * v, 3) == pytest.approx(2.0)


def test_no_certified_power_of_two_gives_no_eigenvalue_bound():
    # lambda_max = 2^1023: 2^1023 I - A is singular and the next power of
    # two overflows, so no power of two is certified above lambda_max
    # (||A v||^2 overflows in the power estimate on the way, which scales
    # it without a warning)
    A = np.array([[2.0 ** 1023]])
    assert hilbert.certified_eigenvalue_bound(A, largest=True) is None


def test_power_estimate_survives_an_overflowing_square():
    # ||A v||^2 overflows above 2^512: the estimate scales that norm, where
    # the plain one gave inf, a zero next iterate and an estimate of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = Operator(np.diag([2.0 ** 520, 1.0])).norm_estimate()
    assert est == pytest.approx(2.0 ** 520, rel=1e-12)


@pytest.mark.parametrize("free", [[0, 2, 3, 6], [5, 1], []],
                         ids=["sorted", "unsorted", "empty"])
def test_restrict_takes_the_same_block_from_every_storage(free):
    A = _spd(7, seed=2)
    free = np.array(free, dtype=np.intp)
    want = A[free][:, free]
    for B in (A, sp.csr_matrix(A), sp.coo_matrix(A)):
        block = Operator(B).restrict(free)
        assert block.kind == ("sparse" if sp.issparse(B) else "dense")
        got = block.A.toarray() if sp.issparse(block.A) else block.A
        assert got.shape == want.shape and np.array_equal(got, want)
