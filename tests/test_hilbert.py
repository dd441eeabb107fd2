"""Metric geometry and the certified SPD solve."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from leapssn import hilbert
from leapssn import (Metric, NumericalError, Operator, Problem, smooth_step,
                     solve_posdef)
from leapssn.hilbert import cg_certified
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
