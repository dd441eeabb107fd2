"""Oracle checks for the problem suite: hand-computed gradients, classical
solutions, operator kernels, and data-format round trips."""

import dataclasses
import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import leapssn
import leapssn.suite
from leapssn import cli, leap_ssn
from leapssn.driver import start_run
from leapssn.suite import (GridImage, add_noise, l1_svm_problem,
                           laplacian_2d, membrane_problem, obstacle,
                           partial_smooth_2d, penalised_quadratic, phantom,
                           plate_bending_operator, plate_problem, psnr,
                           punch_obstacle, quadratic, rank_deficient_ls,
                           rosenbrock, svm_data, svm_problem, tv,
                           tv_dual_problem, write_pgm, write_svm_data)
from leapssn.suite.registry import PROBLEM_NAMES, build_problem, default_tol
from leapssn.suite.rng import SplitMix64
from leapssn.verify import assumption2_sample, audit_trace


def test_export_lists_resolve():
    for module in (leapssn, leapssn.suite):
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    namespace = {}
    exec("from leapssn.suite import *", namespace)
    assert set(leapssn.suite.__all__) <= set(namespace)


# ---------------------------------------------------------------- academic

def test_partial_smooth_hand_values():
    p = partial_smooth_2d()
    assert np.allclose(p.f_grad(np.array([-1.0, 2.0])), [-2.0, 4.0])
    assert np.allclose(p.hess(np.array([-1.0, 2.0])), np.diag([2.0, 2.0]))
    assert np.allclose(p.hess(np.array([0.5, 0.0])), np.diag([4.0, 2.0]))
    assert p.value(np.array([1.0, 0.0])) == pytest.approx(3.0)
    assert p.value(p.project_solution(np.array([1.0, 2.0]))) == 0.0
    assert p.strong_convexity == pytest.approx(2.0)


def test_rosenbrock_hand_values():
    p = rosenbrock(n=2)
    origin = np.zeros(2)
    assert np.allclose(p.f_grad(origin), [-2.0, 0.0])
    assert np.allclose(p.hess(origin), [[2.0, 0.0], [0.0, 200.0]])
    assert p.f_value(np.ones(2)) == pytest.approx(0.0)
    assert p.value(p.project_solution(origin)) == 0.0
    with pytest.raises(ValueError):
        rosenbrock(n=3)      # valleys are built from coordinate pairs


def test_quadratic_spectrum_and_solution():
    p = quadratic(n=8)
    H = p.hess(p.x0)
    w = np.linalg.eigvalsh(H)
    assert w[0] == pytest.approx(1.0, rel=1e-10)
    assert w[-1] == pytest.approx(10.0, rel=1e-10)
    xstar = p.project_solution(p.x0)
    assert np.linalg.norm(p.f_grad(xstar)) <= 1e-12
    assert p.value(xstar) == pytest.approx(0.0, abs=1e-12)


def test_rank_deficient_geometry():
    p = rank_deficient_ls(n=20, rank=12, seed=0)
    H = p.hess(p.x0)
    w = np.linalg.eigvalsh(H)
    assert sum(w > 1e-10) == 12
    # declared curvature lower bound is the smallest positive eigenvalue
    mu = min(v for v in w if v > 1e-10)
    assert p.strong_convexity == pytest.approx(mu, rel=1e-10)
    # gradients live in the range of the normal matrix: projecting onto the
    # null space annihilates them
    x = p.x0 + np.linspace(-1.0, 1.0, 20)
    g = p.f_grad(x)
    proj = p.project_solution(x)
    assert p.f_value(proj) <= 1e-18
    assert np.allclose(p.project_solution(proj), proj, atol=1e-12)
    # moving from x to its projection is orthogonal to the solution set,
    # so the projection is a true fixed point; the gradient must vanish there
    assert np.linalg.norm(p.f_grad(proj)) <= 1e-10 * max(1.0, np.linalg.norm(g))


# ---------------------------------------------------------------- svm

def test_svm_hand_gradient_single_sample():
    X = np.array([[1.0]])
    y = np.array([1.0])
    p = svm_problem(X, y, gamma=1.0)
    z = np.zeros(2)                     # (w, b)
    assert p.f_value(z) == pytest.approx(1.0)       # margin 0 -> loss (1-0)^2
    assert np.allclose(p.f_grad(z), [-2.0, -2.0])
    # a confidently-correct point has zero hinge contribution
    far = np.array([5.0, 0.0])
    assert p.f_value(far) == pytest.approx(12.5)    # pure ridge term
    assert np.allclose(p.f_grad(far), [5.0, 0.0])


def test_svm_proposal_scale_tracks_data():
    X, y = svm_data(100, 3, seed=2)
    gamma = 10.0
    p = svm_problem(X, y, gamma)
    assert p.lambda0 == pytest.approx(3.0 * gamma * np.sqrt(np.sum(X * X)))


def test_l1_svm_prox_thresholds_the_weights_only():
    prob = l1_svm_problem(40, 3, 2, 10.0)
    v = np.array([0.5, -2.0, 0.05, 7.0])        # (w, b)
    assert prob.psi(v) == pytest.approx(25.5)
    # t * mu = 1: weights shrink by 1 towards zero, the intercept is free
    assert np.array_equal(prob.prox(v, 0.1), [0.0, -1.0, 0.0, 7.0])
    with pytest.raises(ValueError):
        l1_svm_problem(40, 3, 2, 0.0)


def test_l1_svm_psi_decrease_matches_the_difference_of_values():
    """The termwise decrease agrees with psi(x) - psi(y) to a few ulp of
    psi, and with the exact decrease of the float data to a few ulp of its
    own terms, where that subtraction is off by up to ulp(psi)."""
    mu = 10.0
    prob = l1_svm_problem(40, 3, 2, mu)
    lo, hi = prob.sample_box
    rng = SplitMix64(11)
    for x in _box_points(prob, 7, 10):
        for scale in (1.0, 1e-3, 1e-8):
            y = x + scale * (hi - lo) * (rng.uniforms(prob.dim) - 0.5)
            px, py = prob.psi(x), prob.psi(y)
            dec = prob.psi_decrease(x, y)
            assert abs(dec - (px - py)) <= 4 * np.spacing(max(px, py))
            terms = [Fraction(abs(a)) - Fraction(abs(b))
                     for a, b in zip(x[:3].tolist(), y[:3].tolist())]
            exact = Fraction(mu) * sum(terms)
            size = mu * float(sum(abs(d) for d in terms))
            assert abs(dec - float(exact)) <= 8 * np.finfo(float).eps * size
        assert prob.psi_decrease(x, x) == 0.0


@pytest.mark.parametrize("mu, seed", [(10.0, 21), (10.0, 25), (10.0, 30),
                                      (300.0, 1), (500.0, 1)])
def test_l1_svm_converges_with_the_termwise_psi_decrease(mu, seed):
    """psi(x) - psi(x_plus) by subtraction floors at ulp(psi), about 3e-14
    at psi = 140, while the acceptance test compares decreases near
    beta lambda ||d||^2, about 5e-19, so rounding decided rungs of these
    runs: with the subtraction each ends inner_budget, without the prox
    loop's gradient restart (mu = 10 at seed 25, mu = 300 and 500) or with
    it (mu = 10 at seeds 21 and 30)."""
    res = leap_ssn(l1_svm_problem(2000, 200, seed, mu), grad_tol=1e-6)
    assert res.status == "converged"


def test_svm_data_round_trip(tmp_path):
    X, y = svm_data(50, 3, seed=7)
    assert set(np.unique(y)) == {-1.0, 1.0}
    path = tmp_path / "data.txt"
    write_svm_data(path, X, y)
    data = np.loadtxt(path)   # labels in column 0, then the features
    assert np.array_equal(data[:, 0], y)
    assert np.array_equal(data[:, 1:], X)


@pytest.mark.parametrize("build, message", [
    (lambda: svm_problem(np.ones((4, 2)), np.ones(3), 1.0), "matching labels"),
    (lambda: rank_deficient_ls(rank=0), r"rank must lie in \[1, n\]"),
    (lambda: quadratic(n=0), "quadratic needs n >= 1"),
    (lambda: plate_problem(n=4), "n must be at least 5"),
    (lambda: plate_problem(9, 0.0), "gamma must be finite and positive"),
    (lambda: tv_dual_problem(np.zeros((4, 5)), 1.0), "square image"),
    (lambda: tv_dual_problem(np.zeros((2, 2)), 1.0), "image too small"),
], ids=["svm_labels", "rank_0", "quadratic_0", "plate_4", "plate_gamma_0",
        "tv_4x5", "tv_2x2"])
def test_builders_refuse_bad_sizes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------- obstacle

def test_laplacian_eigenvalue_oracle():
    m = 9
    A = laplacian_2d(m)
    assert (A != A.T).nnz == 0
    w = np.linalg.eigvalsh(A.toarray())
    # kron-sum spectrum: 4 - 2cos(i pi h) - 2cos(j pi h)
    expected = 2.0 * (2.0 - 2.0 * np.cos(np.pi / (m + 1)))
    assert w[0] == pytest.approx(expected, rel=1e-10)


def test_membrane_without_penalty_is_poisson():
    prob = membrane_problem(n=17, gamma=0.0)
    res = leap_ssn(prob, grad_tol=1e-12)
    assert res.status == "converged"
    m = 15
    A = laplacian_2d(m)
    h = 1.0 / 16
    b = np.full(m * m, -10.0) * h * h
    ustar = spla.spsolve(A.tocsc(), b)
    err = res.x - ustar
    assert np.sqrt(err @ (A @ err)) <= 1e-8


def test_membrane_violation_shrinks_with_gamma():
    viols = []
    for gamma in (1e2, 1e4, 1e6):
        prob = membrane_problem(n=17, gamma=gamma)
        res = leap_ssn(prob, grad_tol=1e-10, max_solves=200)
        assert res.status == "converged"
        phi = prob.obstacle
        viols.append(float(np.max(np.maximum(phi - res.x, 0.0))))
    assert viols[0] > viols[1] > viols[2]
    assert viols[2] <= 1e-4


def _exact_membrane(n):
    """The membrane with exact contact: f without the penalty and psi the
    indicator of {u >= phi}, whose prox is max(v, phi), in the membrane's
    own metric A, with the builder's hooks and certified L = 0."""
    base = membrane_problem(n, 0.0)
    phi = base.obstacle
    return dataclasses.replace(
        base, psi_value=lambda u: 0.0 if np.all(u >= phi) else np.inf,
        prox=lambda v, t: np.maximum(v, phi), psi_decrease=lambda x, y: 0.0,
        x0=np.maximum(phi, 0.0)), phi


def test_exact_contact_converges_mesh_independently_in_its_metric():
    """The composite step minimises the model in the metric A, so the exact
    membrane takes as many solves on every mesh, with a clean audit
    against its certified L, and its solution is feasible."""
    solves = []
    for n in (17, 33, 65):
        prob, phi = _exact_membrane(n)
        res = leap_ssn(prob)
        assert res.status == "converged"
        report = audit_trace(res.trace, prob)
        assert report.ok and report.L_source == "certified"
        assert float((res.x - phi).min()) == 0.0
        solves.append(res.solves)
    assert solves == [8, 8, 8]


def test_the_exact_contacts_start_row_is_measured_in_its_dual_norm():
    """The start stationarity of a composite run is the dual norm of the
    unit-step prox-gradient mapping, like every accepted row's; a run with
    no accepted trial reports it as its gradient norm."""
    for n in (17, 33, 65):
        prob, _ = _exact_membrane(n)
        x0 = prob.start_point()
        want = prob.metric.dual_norm(
            x0 - prob.prox(x0 - prob.f_grad(x0), 1.0))
        _, _, trace = start_run(prob, None, 1e-8, None)
        assert trace.g0_norm == want
        assert trace.result("converged", 0).grad_dual_norm == want
        if n == 33:
            # the Euclidean residual is 0.16593518271687066
            assert want == pytest.approx(0.15176472723611653, rel=1e-12)


def test_penalty_solutions_approach_the_exact_contact_as_one_over_gamma():
    prob, _ = _exact_membrane(33)
    u = leap_ssn(prob).x
    errs = [float(np.abs(leap_ssn(membrane_problem(33, gamma)).x - u).max())
            for gamma in (1e2, 1e4, 1e6)]
    assert errs[1] <= errs[0] / 50 and errs[2] <= errs[1] / 50, errs


def test_plate_operator_kernel_is_rigid_motions():
    n = 17
    h = 1.0 / (n - 1)
    A = plate_bending_operator(n, h)
    xs = np.arange(n) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for v in (np.ones(n * n), X.ravel(), Y.ravel()):
        assert np.linalg.norm(A @ v) <= 1e-10 * max(1.0, np.linalg.norm(v))
    # and nothing else: the fourth-smallest eigenvalue is well clear of zero
    w = np.linalg.eigvalsh(A.toarray())
    assert w[2] <= 1e-10
    assert w[3] >= 1e-6


def test_punch_obstacle_shape():
    n = 33
    phi = punch_obstacle(n).reshape(n, n)
    ic = int(round((n - 1) * 17 / 32))
    assert np.all(phi[ic, :] == 0.30)
    assert np.all(phi[ic - 1, :] == 0.24)
    assert np.all(phi[ic + 1, :] == 0.24)
    assert phi[0, 0] == -0.5


def test_plate_penetration_shrinks_with_gamma():
    viols = []
    for gamma in (1e2, 1e4):
        prob = plate_problem(n=17, gamma=gamma)
        res = leap_ssn(prob, grad_tol=1e-8, max_solves=200)
        assert res.status == "converged"
        viols.append(float(np.max(prob.obstacle - res.x)))
    assert viols[0] > viols[1]
    assert viols[1] <= 0.05


@pytest.mark.parametrize("build", [membrane_problem, plate_problem],
                         ids=["membrane", "plate"])
@pytest.mark.parametrize("gamma", [1e2, 1e4])
def test_outer_iterations_are_mesh_independent(build, gamma):
    # the solver works in the metric of the function space, so refining
    # the mesh barely moves the outer iteration count; n = 17 is still
    # pre-asymptotic (membrane at gamma = 1e4 takes 12 iterations, 8 on
    # finer meshes) and stays out of the bound
    counts = []
    for n in (33, 65):
        res = leap_ssn(build(n, gamma), grad_tol=1e-8, max_solves=300)
        assert res.status == "converged"
        counts.append(res.iterations)
    assert max(counts) / min(counts) <= 1.25, counts


def test_one_metric_factorization_serves_a_gamma_sweep(counted):
    # R depends on the mesh only: live problems on one mesh share one
    # Metric and its factor, another mesh or family gets its own, and the
    # entry goes with the last problem that holds it
    sweep = [plate_problem(23, gamma) for gamma in (1e2, 1e4, 1e6)]
    assert all(prob.metric is sweep[0].metric for prob in sweep)
    g = sweep[0].f_grad(sweep[0].start_point(None))
    for prob in sweep:
        prob.metric.solve(g)
    assert counted["splu"] == 2     # the certified factor and the kept one
    other = plate_problem(25, 1e4)
    membrane = membrane_problem(23, 1e4)
    assert other.metric is not sweep[0].metric
    assert membrane.metric is not sweep[0].metric
    assert membrane.metric is membrane_problem(23, 1e2).metric
    metric = weakref.ref(sweep[0].metric)
    del sweep, prob
    gc.collect()
    assert metric() is None
    assert plate_problem(23, 1e4).metric.solver() is not None
    assert counted["splu"] == 4


def _recorded(monkeypatch, module, name):
    """Weak references to what each call of ``module.name`` returns."""
    built, build = [], getattr(module, name)

    def recording(*args):
        out = build(*args)
        built.append(weakref.ref(out))
        return out
    monkeypatch.setattr(module, name, recording)
    return built


def test_problems_on_one_mesh_share_its_operators(monkeypatch, tmp_path):
    # the bending operator and the Laplacian depend on the mesh only: a
    # gamma sweep assembles each once, beside the shared metric (whose
    # matrix, for the plate, is A + h^2 I), and each goes with the last
    # problem that holds it
    gc.collect()
    plates = _recorded(monkeypatch, obstacle, "plate_bending_operator")
    laplacians = _recorded(monkeypatch, obstacle, "laplacian_2d")
    sweep = [plate_problem(15, gamma) for gamma in (1e2, 1e5)]
    assert len(plates) == 1 and sweep[0].metric is sweep[1].metric
    A = plates[0]()
    assert A is not None and A is not sweep[0].metric.A
    membranes = [membrane_problem(15, gamma) for gamma in (1e2, 1e4)]
    assert len(laplacians) == 1 and laplacians[0]() is not None
    plate_problem(13, 1e4)
    assert len(plates) == 2
    # a solve and a verify audit (whose plate shares A too) only read A:
    # its indices are unsorted, so an in-place sort would change the bits
    # of every later product with it
    assert not A.has_sorted_indices
    arrays = ("indptr", "indices", "data")
    before = [getattr(A, name).tobytes() for name in arrays]
    assert leap_ssn(sweep[1], grad_tol=1e-8).status == "converged"
    assert cli.main(["verify", "--problem", "plate", "--n", "15",
                     "--gamma", "1e2", "--out", str(tmp_path)]) == 0
    assert len(plates) == 2
    assert [getattr(A, name).tobytes() for name in arrays] == before
    del sweep, membranes, A
    gc.collect()
    assert plates[0]() is None and laplacians[0]() is None
    plate_problem(15, 1e4)
    assert len(plates) == 3


# ---------------------------------------------------------------- imaging

def test_psnr_reference_values():
    base = GridImage(np.full((8, 8), 0.5))
    off1 = GridImage(np.full((8, 8), 0.6))
    off2 = GridImage(np.full((8, 8), 0.7))
    assert psnr(off1, base) == pytest.approx(20.0)
    assert psnr(off2, base) - psnr(off1, base) == pytest.approx(
        -20.0 * np.log10(2.0))


def test_grid_image_clamps_to_unit_range():
    img = GridImage(np.array([[-1.0, 0.3], [2.0, 1.0]]))
    assert img.data.min() >= 0.0
    assert img.data.max() <= 1.0


def test_pgm_round_trip(tmp_path):
    # header "P5 width height 255", then the rows, each value rounded to
    # the nearest of 0..255 (half to even: 127.5 -> 128)
    path = tmp_path / "img.pgm"
    write_pgm(GridImage([[0.0, 0.5, 1.0], [1.0, 0.25, -3.0]]), path)
    assert path.read_bytes() == (b"P5\n3 2\n255\n"
                                 + bytes([0, 128, 255, 255, 64, 0]))
    img = phantom(16)
    write_pgm(img, path)
    raw = path.read_bytes()
    assert raw[:13] == b"P5\n16 16\n255\n" and len(raw) == 13 + 256
    px = np.frombuffer(raw[13:], dtype=np.uint8).reshape(16, 16)
    assert np.abs(px / 255 - img.data).max() <= 0.5 / 255


def test_image_helpers_refuse_bad_shapes():
    with pytest.raises(ValueError, match="must be 2-D"):
        GridImage(np.zeros(4))
    with pytest.raises(ValueError, match="equal shape"):
        psnr(GridImage(np.zeros((2, 2))), GridImage(np.zeros((2, 3))))
    img = phantom(8)
    assert psnr(img, GridImage(img.data.copy())) == np.inf


def test_noise_is_seeded():
    img = phantom(16)
    a = add_noise(img, 0.06, seed=5)
    b = add_noise(img, 0.06, seed=5)
    c = add_noise(img, 0.06, seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert psnr(a, img) == psnr(b, img)


# ---------------------------------------------------------------- tv dual

def test_tv_dual_constant_image_is_nearly_stationary():
    """A constant image has no edges: the dual start point already satisfies
    optimality up to the tiny Tikhonov terms."""
    omega = GridImage(np.full((16, 16), 0.5))
    prob = tv_dual_problem(omega.data, gamma=1e3)
    res = leap_ssn(prob, grad_tol=1e-8, max_solves=60)
    assert res.status == "converged"
    assert res.iterations <= 2


def test_tv_dual_gradient_is_consistent():
    rng = np.random.default_rng(0)
    omega = rng.uniform(0.2, 0.8, size=(8, 8))
    prob = tv_dual_problem(omega, gamma=1e2)
    x = prob.x0 + 1e-3 * rng.standard_normal(prob.dim)
    g = prob.f_grad(x)
    h = 1e-6
    for idx in (0, prob.dim // 2, prob.dim - 1):
        e = np.zeros(prob.dim)
        e[idx] = h
        fd = (prob.f_value(x + e) - prob.f_value(x - e)) / (2 * h)
        assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-8)


def test_tv_instances_on_one_mesh_share_one_metric(counted, monkeypatch):
    # R depends on n only: a gamma sweep, on any noise draw, factors R and
    # certifies lambda_min(R) once, and another mesh gets its own metric;
    # so do B and M, which the sweep assembles once (one B, and one G whose
    # G'G serves both M and R), and which live as long as the sweep
    gc.collect()
    incidences = _recorded(monkeypatch, tv, "_face_incidence")
    gradients = _recorded(monkeypatch, tv, "_face_gradient")
    sweep = [tv_dual_problem(add_noise(phantom(8), 0.1, seed).data, gamma)
             for seed, gamma in ((3, 1e2), (4, 1e3), (3, 1e4))]
    assert all(prob.metric is sweep[0].metric for prob in sweep)
    assert len(incidences) == 1 and len(gradients) == 1
    assert incidences[0]() is not None
    sweep[0].metric.lambda_min_bound()
    splu = counted["splu"]
    for prob in sweep:
        prob.metric.lambda_min_bound()
        prob.metric.solve(prob.f_grad(prob.x0))
    assert counted["splu"] == splu
    other = tv_dual_problem(add_noise(phantom(9), 0.1, 3).data, 1e2)
    assert other.metric is not sweep[0].metric
    assert len(incidences) == 2 and len(gradients) == 2
    del sweep, prob
    gc.collect()
    assert incidences[0]() is None


# ---------------------------------------------------------------- penalised quadratic

def _box_points(prob, seed, count):
    rng = SplitMix64(seed)
    lo, hi = prob.sample_box
    return [lo + (hi - lo) * rng.uniforms(prob.dim) for _ in range(count)]


def _small_tv():
    return tv_dual_problem(add_noise(phantom(8), 0.1, 3).data, 1e3)


@pytest.mark.parametrize("module, build", [
    (obstacle, lambda: membrane_problem(9, 1e4)),
    (tv, _small_tv),
], ids=["membrane", "tv"])
def test_sparse_and_dense_penalty_rows_agree(monkeypatch, module, build):
    sparse_prob = build()
    monkeypatch.setattr(
        module, "penalised_quadratic",
        lambda Q, q, const, K, r, c, **declarations: penalised_quadratic(
            Q, q, const, K.toarray(), r, c, **declarations))
    dense_prob = build()
    for x in _box_points(sparse_prob, 21, 5):
        H = sparse_prob.hess(x)
        assert sp.issparse(H) and isinstance(dense_prob.hess(x), np.ndarray)
        np.testing.assert_allclose(dense_prob.hess(x), H.toarray(),
                                   rtol=1e-15, atol=0.0)
        g = sparse_prob.f_grad(x)
        np.testing.assert_allclose(dense_prob.f_grad(x), g, rtol=0.0,
                                   atol=1e-14 * np.abs(g).max())


@pytest.mark.parametrize("build", [
    lambda: membrane_problem(9, 1e4),
    lambda: plate_problem(9, 1e4),
    _small_tv,
    lambda: svm_problem(*svm_data(40, 3, 2), 10.0),
    partial_smooth_2d,
], ids=["membrane", "plate", "tv", "svm", "partial_smooth_2d"])
def test_f_decrease_matches_the_difference_of_values(build):
    prob = build()
    lo, hi = prob.sample_box
    rng = SplitMix64(11)
    for x in _box_points(prob, 7, 10):
        for scale in (1.0, 1e-3, 1e-8):
            y = x + scale * (hi - lo) * (rng.uniforms(prob.dim) - 0.5)
            fx, fy = prob.f_value(x), prob.f_value(y)
            ulp = np.spacing(max(abs(fx), abs(fy)))
            assert abs(prob.f_decrease(x, y) - (fx - fy)) <= 8 * ulp


def test_quadratic_f_decrease_matches_the_exact_decrease():
    # quadratic's f adds terms of up to ~80 into values of ~10, so the
    # difference of two f values can be ~14 ulp of f off; the reference here
    # is the exact rational 1/2 (x'Ax - y'Ay) + q'(x - y) of the float data
    prob = quadratic(n=8)
    A = [[Fraction(v) for v in row] for row in prob.hess(prob.x0).tolist()]
    q = [Fraction(v) for v in prob.f_grad(np.zeros(prob.dim)).tolist()]

    def exact_f(x):
        x = [Fraction(v) for v in x.tolist()]
        quad = sum(xi * aij * xj for xi, row in zip(x, A)
                   for aij, xj in zip(row, x))
        return quad / 2 + sum(qi * xi for qi, xi in zip(q, x))

    lo, hi = prob.sample_box
    rng = SplitMix64(11)
    for x in _box_points(prob, 7, 10):
        for scale in (1.0, 1e-3, 1e-8):
            y = x + scale * (hi - lo) * (rng.uniforms(prob.dim) - 0.5)
            ulp = np.spacing(max(abs(prob.f_value(x)), abs(prob.f_value(y))))
            exact = float(exact_f(x) - exact_f(y))
            assert abs(prob.f_decrease(x, y) - exact) <= 8 * ulp


# the problems whose penalty rows K are dense, and so carry both block
# hooks, hess_apply and f_values (sparse rows carry hess_apply only)
HOOKED = {
    "svm": lambda: svm_problem(*svm_data(300, 20, 1), 1e3),
    "partial_smooth_2d": partial_smooth_2d,
    "quadratic": quadratic,     # a dense K with no rows
}


def _assert_applies(prob, bases, hessians=None):
    """Column j of hess_apply(X, V) equals H(x_j) v_j to 1e-13, where X
    stacks distinct base points x_j, for a 1-column block (the first base
    point) and a block of all of them; H(x_j) is ``hessians[j]``, else
    hess(x_j)."""
    if hessians is None:
        hessians = [prob.hess(x) for x in bases]
    rng = SplitMix64(17)
    for k in (1, len(bases)):
        V = rng.normals(prob.dim * k).reshape(prob.dim, k)
        HV = prob.hess_apply(np.column_stack(bases[:k]), V)
        assert HV.shape == (prob.dim, k)
        for j in range(k):
            want = hessians[j] @ V[:, j]
            assert (np.linalg.norm(HV[:, j] - want)
                    <= 1e-13 * np.linalg.norm(want))


@pytest.mark.parametrize("build", list(HOOKED.values()), ids=list(HOOKED))
def test_hess_apply_matches_hess(build):
    prob = build()
    _assert_applies(prob, _box_points(prob, 13, 5))
    composite = dataclasses.replace(prob, psi_value=lambda x: 0.0,
                                    prox=lambda v, t: v)
    assert composite.hess_apply is prob.hess_apply


def test_hess_apply_counts_a_sample_on_the_hinge_as_active():
    # w = 0, b = 1 puts every y = +1 sample exactly on the hinge and every
    # y = -1 sample inside it, so the whole of K is active; the block puts
    # four box points with other active sets after it
    X, y = svm_data(300, 20, 1)
    prob = svm_problem(X, y, 1e3)
    x = np.r_[np.zeros(20), 1.0]
    K = -y[:, None] * np.hstack([X, np.ones((300, 1))])
    assert np.count_nonzero(K @ x + 1.0 == 0.0) == np.count_nonzero(y > 0) > 0
    H = np.diag(np.r_[np.ones(20), 0.0]) + 2e3 * (K.T @ K)
    np.testing.assert_allclose(prob.hess(x), H, rtol=1e-13, atol=0.0)
    others = _box_points(prob, 23, 4)
    _assert_applies(prob, [x] + others, [H] + [prob.hess(z) for z in others])

    # partial_smooth_2d's one row x0 >= 0 sits on the hinge at x0 = 0
    prob = partial_smooth_2d()
    x = np.array([0.0, 0.7])
    H = np.diag([4.0, 2.0])
    np.testing.assert_array_equal(prob.hess(x), H)
    others = [np.array([-0.5, 0.3]), np.array([0.5, -1.0]),
              np.array([-1e-300, 0.0]), np.array([1.5, 2.0])]
    _assert_applies(prob, [x] + others,
                    [H] + [np.diag([2.0 + 2.0 * (z[0] >= 0.0), 2.0])
                           for z in others])


@pytest.mark.parametrize("build", list(HOOKED.values()), ids=list(HOOKED))
def test_block_hooks_match_pointwise(build):
    """Each entry of f_values equals the per-point f_value to 1e-13, for
    1- and 6-column blocks that include a point on the hinge (Kx - r == 0
    in some row; quadratic has no rows)."""
    prob = build()
    # on the hinge: w = 0, b = 1 for every y = +1 sample of the SVM (as
    # test_hess_apply_counts_a_sample_on_the_hinge_as_active asserts), and
    # x0 = 0 for partial_smooth_2d's one row
    hinge = {"svm": np.r_[np.zeros(prob.dim - 1), 1.0],
             "partial_smooth_2d": np.array([0.0, 0.7])}.get(prob.name)
    pts = _box_points(prob, 19, 5) + ([] if hinge is None else [hinge])
    for block in ([pts[0]], pts):
        X = np.column_stack(block)
        values = prob.f_values(X)
        assert values.shape == (len(block),)
        for j, x in enumerate(block):
            f = prob.f_value(x)
            assert abs(values[j] - f) <= 1e-13 * abs(f)
    composite = dataclasses.replace(prob, psi_value=lambda x: 0.0,
                                    prox=lambda v, t: v)
    assert composite.f_values is prob.f_values


def test_sparse_penalty_rows_have_hess_apply_and_no_f_hooks():
    # five box points whose active sets differ, so each column of a block
    # needs its own base point's diagonal term
    for prob in (membrane_problem(9, 1e4), plate_problem(9, 1e4), _small_tv()):
        bases = _box_points(prob, 13, 5)
        hessians = [prob.hess(x) for x in bases]
        assert len({H.diagonal().tobytes() for H in hessians}) == len(bases)
        _assert_applies(prob, bases, hessians)
        assert prob.f_values is None


def test_a_sparse_penalty_row_bounds_one_unknown():
    K = sp.csr_matrix(np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="one entry per row"):
        penalised_quadratic(sp.identity(2, format="csr"), np.zeros(2), 0.0,
                            K, np.zeros(2), 1.0)


def test_a_dense_q_with_sparse_rows_gives_a_sparse_hessian():
    # f = |x|^2 - sum(x) + 1/2 |max(0, x)|^2 is minimised at x = 1/3
    prob = penalised_quadratic(2.0 * np.eye(3), -np.ones(3), 0.0,
                               sp.identity(3, format="csr"), np.zeros(3), 1.0)
    assert sp.issparse(prob.hess(np.ones(3)))
    res = leap_ssn(prob, grad_tol=1e-10)
    assert res.status == "converged"
    assert np.allclose(res.x, 1.0 / 3.0, atol=1e-9)


# ---------------------------------------------------------------- registry

def test_registry_names_and_tols():
    assert set(PROBLEM_NAMES) == {
        "broken_gradient", "membrane", "partial_smooth", "plate",
        "quadratic", "rank_deficient", "rosenbrock", "svm", "tv"}
    assert default_tol("svm") == 1e-6
    assert default_tol("quadratic") == 1e-8
    with pytest.raises(KeyError):
        build_problem("no_such_problem")


def test_every_declared_constant_changes_the_run():
    # a constant a registry problem declares must move its trace.csv from
    # the one the driver's default gives, else the declaration is dead;
    # TV runs at a size where that shows in a few solves
    defaults = {"alpha": 0.5, "beta": 0.25, "lambda0": 1.0}
    sizes = {"tv": {"n": 16, "gamma": 1e2}}
    checked = []
    for name in PROBLEM_NAMES:
        prob = build_problem(name, **sizes.get(name, {}))
        declared = [k for k in defaults if getattr(prob, k, None) is not None]
        if declared:
            own = leap_ssn(prob, max_solves=60).trace.csv()
        for key in declared:
            run = leap_ssn(prob, max_solves=60, **{key: defaults[key]})
            assert run.trace.csv() != own, (name, key)
            checked.append((name, key))
    assert {"tv", "svm"} <= {name for name, _ in checked}


def test_registry_builds_with_overrides():
    p = build_problem("membrane", n=9, gamma=100.0)
    assert p.dim == 49
    q = build_problem("svm", n=2, seed=3)
    assert q.dim == 3
    t = build_problem("tv", n=16)
    assert t.noisy_image.data.shape == (16, 16)


# ------------------------------------------------------- model-error bound

@pytest.mark.parametrize("name, gamma, n, mu, bound", [
    ("membrane", 1e4, 17, 2.0 ** -4, 625.0),
    ("membrane", 1e4, 65, 2.0 ** -8, 625.0),
    ("plate", 1e2, 17, 2.0 ** -9, 200.0),
    ("plate", 1e5, 65, 2.0 ** -13, 2e5),
    ("tv", 1e4, 16, 2.0 ** -8, 2e4 * 2.0 ** 8),
    ("tv", 1e4, 64, 2.0 ** -12, 2e4 * 2.0 ** 12),
    ("svm", 1.0, 2, 1.0, 2.0 * 2.0 ** 12),
    ("partial_smooth", None, None, 1.0, 4.0),
    ("quadratic", None, None, 1.0, 0.0),
    ("rank_deficient", None, None, 1.0, 0.0),
])
def test_certified_model_error_bounds(name, gamma, n, mu, bound):
    # L <= c t / mu: mu the metric's certified power of two below
    # lambda_min(R), t the power of two at or above lambda_max(K'K) (1 for
    # -I, 2 for [I; -I], certified for the SVM's dense rows); the exact
    # values repeat at any BLAS thread count.  A sample never exceeds it
    # (quadratic's, 2.4e-12, and rank_deficient's, 7.3e-12, are rounding
    # of an affine f' with a constant H, and their metrics are unread)
    prob = build_problem(name, gamma, n, None)
    assert prob.model_error_bound(prob.metric) == bound
    if bound:
        assert prob.metric.lambda_min_bound() == mu
    if bound and prob.dim <= 300:
        sampled = dataclasses.replace(prob, model_error_bound=None)
        assert assumption2_sample(sampled) <= bound


def test_certified_model_error_bound_of_the_dense_svm_benchmark():
    # 10^4 samples, 200 features: lambda_max(K'K) = 3.3e4 lies below the
    # certified t = 2^16, so L = 2 gamma 2^16
    prob = svm_problem(*svm_data(10_000, 200, 1), 1e3)
    assert prob.model_error_bound(prob.metric) == 2e3 * 2.0 ** 16


def test_the_model_error_bound_follows_the_problem_metric():
    # the bound reads the metric it is given, so a problem rebuilt on
    # another metric (dataclasses.replace) gets that metric's mu
    prob = membrane_problem(17, 1e4)
    assert prob.model_error_bound(leapssn.Metric()) == 1e4 / 16 ** 2
