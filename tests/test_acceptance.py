"""Acceptance suite: ten end-to-end guarantees the library ships with.

Each test pins the tolerances it promises; sizes are desk-scale instances
of the same problems the solver targets at scale.  Runtime budgets are
asserted inside the tests so a performance regression fails loudly.
"""

import time

import numpy as np
import pytest

from leapssn import (audit_trace, composite_step, dm_condition_sample,
                     grad_check, hess_symmetry_check, leap_ssn,
                     manifold_check, plain_newton, sample_points,
                     smooth_step, superlinear_check)
from leapssn import Metric, Problem
from leapssn.suite import (SplitMix64, add_noise, membrane_problem,
                           partial_smooth_2d, phantom, plate_problem, psnr,
                           quadratic, rank_deficient_ls, rosenbrock,
                           svm_data, svm_problem, tv_dual_problem)
from stepmaps import step_length_bound, step_shift_bound

ALPHA, BETA, M = 0.5, 0.25, 2.0


def _suite_instances():
    """Desk-scale instance of every problem family in the suite.

    Returns (name, problem, grad_tol, run_kwargs, may_stop_early) tuples.
    The TV instance is run under a tight solve cap: the audit must still be
    spotless even when the run is cut off mid-flight.
    """
    X, y = svm_data(200, 2, seed=1)
    noisy = add_noise(phantom(32), 0.06, seed=5)
    return [
        ("quadratic", quadratic(), 1e-8, {}, False),
        ("partial_smooth", partial_smooth_2d(), 1e-8, {}, False),
        ("rank_deficient", rank_deficient_ls(20, 12, seed=0), 1e-8, {}, False),
        ("rosenbrock", rosenbrock(10), 1e-8, {}, False),
        ("svm", svm_problem(X, y, 1.0), 1e-6, {}, False),
        ("membrane", membrane_problem(33, 1e3), 1e-8,
         {"max_solves": 300}, False),
        ("plate", plate_problem(33, 1e3), 1e-8, {"max_solves": 300}, False),
        ("tv", tv_dual_problem(noisy.data, 1e3), 1e-8,
         {"max_solves": 80}, True),
    ]


def test_01_trace_audit_suite():
    """Every accepted step of every suite run satisfies the acceptance
    inequalities, monotone descent, the proposal-size cap, and the
    solve-count bound -- recomputed from the trace, zero violations."""
    t0 = time.monotonic()
    for name, prob, tol, kwargs, partial_ok in _suite_instances():
        res = leap_ssn(prob, grad_tol=tol, **kwargs)
        if not partial_ok:
            assert res.status == "converged", (name, res.status)
        rep = audit_trace(res.trace, prob)
        assert rep.ok, (name, rep.violations[:3])
    assert time.monotonic() - t0 <= 60.0


def test_02_nonconvex_sublinear_envelope():
    """The running minimum of the gradient norm decays like 1/sqrt(k) with
    the constant the analysis predicts, at every iteration."""
    prob = rosenbrock(10)
    res = leap_ssn(prob, grad_tol=1e-8)
    assert res.status == "converged"
    rep = audit_trace(res.trace, prob)
    assert rep.ok
    assert rep.sublinear_envelope_ok is True

    # explicit recomputation, independent of the audit internals
    lam_bar = max(2.0 * M * 1.05 * rep.L_hat, 1.0)
    f_star = prob.value(prob.project_solution(res.trace.iterates[-1]))
    gap0 = res.trace.F0 - f_star
    gmins = np.minimum.accumulate([r.grad_dual_norm for r in res.trace.records])
    for k in range(1, len(gmins) + 1):
        bound = np.sqrt(lam_bar * gap0 / (BETA * ALPHA ** 2 * k))
        assert gmins[k - 1] <= bound * (1.0 + 1e-8), k


def test_03_pl_linear_envelope_and_superlinear_tail():
    """Rank-deficient least squares: linear envelope with the oracle
    curvature constant, superlinear tail, and superlinear decay of the
    distance to the (affine, non-isolated) solution set."""
    t0 = time.monotonic()
    prob = rank_deficient_ls(20, 12, seed=0)
    res = leap_ssn(prob, grad_tol=1e-10)   # deep tail shows the full window
    assert res.status == "converged"

    rep = audit_trace(res.trace, prob)
    assert rep.ok
    assert rep.pl_linear_envelope_ok is True

    # (a) envelope recomputed with mu from a dense eigensolve
    w = np.linalg.eigvalsh(prob.hess(prob.x0))
    mu = float(min(v for v in w if v > 1e-10))
    lam_bar = max(2.0 * M * 1.05 * rep.L_hat, 1.0)
    c = 2.0 * BETA * ALPHA ** 2 * mu
    f_star = prob.value(prob.project_solution(res.trace.iterates[-1]))
    gap0 = res.trace.F0 - f_star
    for r in res.trace.records:
        envelope = np.exp(-c * (r.k + 1) / (c + lam_bar)) * gap0
        assert r.F - f_star <= envelope * (1.0 + 1e-8), r.k

    # (b) gradient tail is superlinear and the proposals collapse
    assert superlinear_check(res.trace) == (True, True)

    # (c) distance to the solution set: ratios <= 0.1 over the last 5 steps
    dists = [np.linalg.norm(x - prob.project_solution(x))
             for x in [res.trace.x0] + res.trace.iterates]
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 1e-14]
    assert len(ratios) >= 5
    assert all(r <= 0.1 for r in ratios[-5:]), ratios[-5:]
    assert time.monotonic() - t0 <= 5.0


def test_04_partial_smooth_identification():
    """Composite toy with a kink along the first axis: high-accuracy
    convergence to the origin, finite-time manifold identification, a
    superlinear tail, and a vanishing generalized-derivative gap."""
    t0 = time.monotonic()
    prob = partial_smooth_2d()
    assert np.array_equal(prob.x0, np.ones(2))
    res = leap_ssn(prob, grad_tol=1e-10)
    assert res.status == "converged"
    assert res.grad_dual_norm <= 1e-10
    assert np.linalg.norm(res.x) <= 1e-9

    idx = manifold_check(res.trace)
    assert idx is not None           # x_1 = 0 exactly from some iterate on

    assert superlinear_check(res.trace) == (True, True)

    ratios = dm_condition_sample(res.trace, prob)
    assert ratios is not None and len(ratios) >= 2
    assert ratios[-1] <= max(1e-8, 0.5 * ratios[0] + 1e-12)
    assert time.monotonic() - t0 <= 1.0


def test_05_penalised_contact_robustness_sweep():
    """Stiff contact sweep: the adaptive solver converges across five
    decades of penalty weight with nondecreasing cost, while the pure
    Newton baseline breaks on (at least) the two stiffest instances."""
    t0 = time.monotonic()
    gammas = [1e2, 1e3, 1e4, 1e5, 1e6]
    counts = []
    for gamma in gammas:
        prob = plate_problem(65, gamma)
        res = leap_ssn(prob, grad_tol=1e-8, max_solves=300)
        assert res.status == "converged", (gamma, res.status)
        counts.append(res.solves)
    assert counts == sorted(counts), counts

    for gamma in gammas[-2:]:
        prob = plate_problem(65, gamma)
        base = plain_newton(prob, grad_tol=1e-8, max_solves=300)
        assert base.status != "converged", (gamma, base.status)
    assert time.monotonic() - t0 <= 120.0


def test_06_tv_restoration_quality():
    """Dual TV denoising at two regularisation strengths: both solves fit
    the budget and lift PSNR by at least 3 dB over the noisy input."""
    t0 = time.monotonic()
    clean = phantom(64)
    noisy = add_noise(clean, 0.06, seed=5)
    base_psnr = psnr(noisy, clean)

    prob4 = tv_dual_problem(noisy, 1e4)
    res4 = leap_ssn(prob4, grad_tol=1e-8, max_solves=200)
    assert res4.status == "converged"
    assert res4.solves <= 200
    assert psnr(prob4.reconstruct(res4.x), clean) >= base_psnr + 3.0

    # continuation: the stiffer solve starts from the gamma=1e4 solution
    prob5 = tv_dual_problem(noisy, 1e5)
    res5 = leap_ssn(prob5, x0=res4.x, grad_tol=1e-8, max_solves=200)
    assert res5.status == "converged"
    assert res5.solves <= 200
    assert psnr(prob5.reconstruct(res5.x), clean) >= base_psnr + 3.0
    assert time.monotonic() - t0 <= 120.0


def test_07_svm_sweep():
    """Squared-hinge SVM over 15 (n, gamma) cells at ell = 10,000 samples:
    every cell converges within 130 solves and cost grows with gamma."""
    t0 = time.monotonic()
    for n in (2, 20, 200):
        X, y = svm_data(10_000, n, seed=1)
        counts = []
        for gamma in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            prob = svm_problem(X, y, gamma)
            res = leap_ssn(prob, grad_tol=1e-6, max_solves=130)
            assert res.status == "converged", (n, gamma, res.status)
            counts.append(res.solves)
        assert counts == sorted(counts), (n, counts)
    assert time.monotonic() - t0 <= 300.0


def _grid_minimise(x, g, H, lam, psi, rounds=18, pts=13):
    """Brute-force model minimiser by iteratively refined grid search."""
    dim = x.size
    radius = (np.linalg.norm(g) + 1.0) / lam + 1.0
    centre = np.zeros(dim)
    for _ in range(rounds):
        axes = [np.linspace(c - radius, c + radius, pts) for c in centre]
        mesh = np.meshgrid(*axes, indexing="ij")
        P = np.stack([m.ravel() for m in mesh], axis=1)
        vals = (P @ g + 0.5 * np.einsum("ij,ij->i", P @ H, P)
                + 0.5 * lam * np.einsum("ij,ij->i", P, P)
                + psi(x[None, :] + P))
        centre = P[int(np.argmin(vals))]
        radius = 2.0 * (2.0 * radius / (pts - 1))
    return x + centre


def test_08_subproblem_oracle_equivalence():
    """The accelerated inner solver agrees with brute force on 50 random
    tiny models, and with the direct linear solve whenever psi vanishes."""
    t0 = time.monotonic()
    rng = SplitMix64(0x8EED)

    def soft0(v, t):
        out = v.copy()
        out[0] = np.sign(v[0]) * max(abs(v[0]) - t, 0.0)
        return out

    for trial in range(50):
        dim = 1 + int(rng.raw(1)[0] % np.uint64(3))
        A = rng.normals(dim * dim).reshape(dim, dim)
        H = A.T @ A + 0.3 * np.eye(dim)
        g = 2.0 * rng.normals(dim)
        x = rng.normals(dim)
        lam = 0.5 + 3.5 * float(rng.uniforms(1)[0])
        with_kink = trial % 2 == 0 and dim >= 1

        if with_kink:
            prob = Problem(dim=dim,
                           f_value=lambda v, x=x, g=g, H=H: float(
                               g @ (v - x) + 0.5 * (v - x) @ H @ (v - x)),
                           f_grad=lambda v, x=x, g=g, H=H: g + H @ (v - x),
                           hess=lambda v, H=H: H,
                           metric=Metric(),
                           psi_value=lambda v: abs(float(v[0])),
                           prox=soft0)
            psi_batch = lambda V: np.abs(V[:, 0])
        else:
            prob = Problem(dim=dim,
                           f_value=lambda v, x=x, g=g, H=H: float(
                               g @ (v - x) + 0.5 * (v - x) @ H @ (v - x)),
                           f_grad=lambda v, x=x, g=g, H=H: g + H @ (v - x),
                           hess=lambda v, H=H: H,
                           metric=Metric())
            psi_batch = lambda V: np.zeros(V.shape[0])

        sub = composite_step(prob, x, g, H, lam)
        assert sub.computable, trial
        ref = _grid_minimise(x, g, H, lam, psi_batch)
        assert np.max(np.abs(sub.x_plus - ref)) <= 1e-6, trial

        if not with_kink:
            direct = smooth_step(prob, x, g, H, lam)
            assert np.max(np.abs(sub.x_plus - direct.x_plus)) <= 1e-8, trial
    assert time.monotonic() - t0 <= 30.0


def test_09_derivative_and_structure_suite():
    """Finite-difference gradient agreement and exact operator symmetry on
    every suite problem, plus the sampled step-map inequalities."""
    t0 = time.monotonic()
    for name, prob, _, _, _ in _suite_instances():
        pts = sample_points(prob, 3)
        assert grad_check(prob, pts) <= 1e-5, name
        assert hess_symmetry_check(prob, pts) <= 1e-9, name

    for prob, mu in ((quadratic(), 1.0), (partial_smooth_2d(), 2.0)):
        for x in sample_points(prob, 4):
            for lam in (0.5, 2.0, 8.0):
                lhs, rhs = step_length_bound(prob, x, lam, mu=mu)
                assert lhs <= rhs * (1.0 + 1e-8) + 1e-12
                lhs, rhs = step_shift_bound(prob, x, lam, 4.0 * lam)
                assert lhs <= rhs * (1.0 + 1e-8) + 1e-12
    assert time.monotonic() - t0 <= 30.0


def test_10_determinism(tmp_path):
    """Same seed, same run: equal solve counts and byte-identical traces."""
    X, y = svm_data(200, 2, seed=1)
    payloads = []
    for tag in ("a", "b"):
        prob = svm_problem(X, y, 1.0)
        res = leap_ssn(prob, grad_tol=1e-6)
        path = tmp_path / f"trace_{tag}.csv"
        res.trace.write_csv(path)
        payloads.append((res.solves, path.read_bytes()))
    assert payloads[0][0] == payloads[1][0]
    assert payloads[0][1] == payloads[1][1]

    caps = []
    for tag in ("c", "d"):
        prob = rank_deficient_ls(20, 12, seed=0)
        res = leap_ssn(prob, grad_tol=1e-8)
        path = tmp_path / f"trace_{tag}.csv"
        res.trace.write_csv(path)
        caps.append(path.read_bytes())
    assert caps[0] == caps[1]
