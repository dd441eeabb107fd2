"""Regularised subproblem solvers: exactness, certificates, refusal cases."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from leapssn import (Metric, Operator, Problem, composite_step, driver,
                     hilbert, leap_ssn, smooth_step, subsolver)
from leapssn.subsolver import INNER_MAXIT
from leapssn.suite import (SplitMix64, l1_svm_problem, partial_smooth_2d,
                           quadratic, rosenbrock)


def test_smooth_step_solves_the_shifted_system():
    prob = quadratic()
    x = prob.x0 + 0.5
    g = prob.f_grad(x)
    H = prob.hess(x)
    for lam in (0.25, 1.0, 8.0):
        res = smooth_step(prob, x, g, H, lam)
        assert res.computable
        d = res.x_plus - x
        assert np.linalg.norm((H + lam * np.eye(prob.dim)) @ d + g) <= 1e-9


def test_smooth_step_fixed_point_at_stationarity():
    prob = quadratic()
    xstar = prob.project_solution(prob.x0)
    g = prob.f_grad(xstar)
    res = smooth_step(prob, xstar, g, prob.hess(xstar), 1.0)
    assert np.linalg.norm(res.x_plus - xstar) <= 1e-10


def test_smooth_step_refuses_composite_problems():
    with pytest.raises(ValueError):
        p = partial_smooth_2d()
        smooth_step(p, p.x0, p.f_grad(p.x0), p.hess(p.x0), 1.0)


def test_smooth_step_not_computable_on_indefinite_model():
    prob = rosenbrock(n=2)
    x = np.array([0.0, 1.0])            # curvature -398 in the first coordinate
    g = prob.f_grad(x)
    H = prob.hess(x)
    assert not smooth_step(prob, x, g, H, 1.0).computable
    assert smooth_step(prob, x, g, H, 1e4).computable


def test_composite_step_certificate_and_stationarity():
    prob = partial_smooth_2d()
    x = prob.x0.copy()
    g = prob.f_grad(x)
    H = prob.hess(x)
    res = composite_step(prob, x, g, H, 1.0)
    assert res.computable
    xp = res.x_plus

    # psi_grad is an exact subgradient of |x_0| at x_plus
    rng = SplitMix64(0xBEEF)
    base = prob.psi(xp)
    for y in rng.normals(40).reshape(20, 2) * 2.0:
        assert prob.psi(y) >= base + res.psi_grad @ (y - xp) - 1e-12

    # and together with the model gradient it certifies near-stationarity
    d = xp - x
    model_g = g + H @ d + 1.0 * d
    assert np.linalg.norm(model_g + res.psi_grad) <= 1e-6


@pytest.mark.parametrize("newton", [True, False], ids=["newton", "prox_only"])
def test_the_metric_enters_the_composite_model(newton, monkeypatch):
    """The model's proximal term is lambda/2 ||y - x||_R^2: with R = 4 I
    at lambda = 1/2 it is the identity's model at lambda = 2, and the two
    steps agree.  Their step sizes agree too, so with every reduced solve
    refused the prox loops take the same iterations."""
    if not newton:
        monkeypatch.setattr(subsolver, "_reduced_solve", lambda *args: None)
    prob = partial_smooth_2d()
    scaled = dataclasses.replace(prob, metric=Metric(4.0 * np.eye(2)))
    x = prob.start_point()
    g, H = prob.f_grad(x), prob.hess(x)
    res = composite_step(scaled, x, g, H, 0.5)
    ref = composite_step(prob, x, g, H, 2.0)
    assert res.computable and ref.computable
    assert res.diagnostics == ref.diagnostics
    assert np.allclose(res.x_plus, ref.x_plus, rtol=0.0, atol=1e-12)
    assert np.allclose(res.psi_grad, ref.psi_grad, rtol=0.0, atol=1e-12)


def test_composite_step_matches_smooth_step_when_psi_is_absent():
    prob = quadratic()
    rng = SplitMix64(0x5EED)
    for _ in range(10):
        x = prob.project_solution(prob.x0) + rng.normals(prob.dim)
        g = prob.f_grad(x)
        H = prob.hess(x)
        lam = float(rng.uniforms(1)[0]) * 4.0 + 0.25
        a = smooth_step(prob, x, g, H, lam)
        b = composite_step(prob, x, g, H, lam)
        assert b.computable
        assert np.linalg.norm(a.x_plus - b.x_plus) <= 1e-8
        # both hand the driver the same psi data: a zero subgradient; the
        # driver takes psi's value from the problem, which is 0 here
        for res in (a, b):
            assert np.array_equal(res.psi_grad, np.zeros(prob.dim))
            assert not hasattr(res, "psi_value")
            assert prob.psi(res.x_plus) == 0.0


def _counted_step(base, x, lam, monkeypatch):
    """Run ``composite_step`` from ``x`` at ``lam`` with its H products,
    prox calls, psi evaluations and reduced solves counted.  Returns the
    result and a log: the counts, the prox inputs and psi points in order,
    and ``events``, one letter per call in order: ``p`` a prox call, ``s``
    a psi evaluation, ``n`` a certified reduced solve, ``x`` a refused
    one."""
    log = {"apply": 0, "events": [], "prox_inputs": [], "points": []}

    def prox(v, t):
        log["events"].append("p")
        log["prox_inputs"].append(v.copy())
        return base.prox(v, t)

    def psi_value(y):
        log["events"].append("s")
        log["points"].append(y.copy())
        return base.psi_value(y)

    solve = subsolver.solve_posdef

    def reduced(M, rhs):
        out = solve(M, rhs)
        log["events"].append("x" if out is None else "n")
        return out

    monkeypatch.setattr(subsolver, "solve_posdef", reduced)
    prob = dataclasses.replace(base, prox=prox, psi_value=psi_value)
    H = Operator(prob.hess(x))
    H.norm_estimate()
    apply = H.apply

    def counted(v):
        log["apply"] += 1
        return apply(v)

    H.apply = counted
    res = composite_step(prob, x, prob.f_grad(x), H, lam)
    log["events"] = "".join(log["events"])
    log["prox"], log["psi"] = (log["events"].count(c) for c in "ps")
    return res, log


# One inner iteration in a step's event log: the candidate, the prox step
# from the best point after a function-value restart, the residual test,
# then a reduced solve, refused (x) or certified (n) with its Newton
# candidate, and the residual test again when that is taken: a taken
# candidate's test is followed by the next candidate's prox or by the end,
# a refused candidate by the next candidate's prox and its psi evaluation.
_ITERATION = re.compile(r"ps(ps)?p(x|ns(p(?=p|$))?)?")


def _iterations(log):
    """The iterations of a logged step that has no stalled iteration, each
    as (restart, Newton candidate evaluated, Newton candidate taken, the
    model points taken as y)."""
    events, points = log["events"], iter(log["points"])
    assert events[0] == "s"
    next(points)        # the start
    out, pos = [], 1
    while pos < len(events):
        m = _ITERATION.match(events, pos)
        assert m, events[pos:]
        y = next(points)
        if m[1]:        # the restart's candidate replaces the first
            y = next(points)
        taken = [y]
        newton = (m[2] or "").startswith("n")
        if newton:
            candidate = next(points)
            if m[3]:
                taken.append(candidate)
        out.append((bool(m[1]), newton, bool(m[3]), taken))
        pos = m.end()
    return out


@pytest.mark.parametrize("make, lam, counts", [
    (partial_smooth_2d, 0.5, (0, 1, 1)),
    (lambda: l1_svm_problem(300, 20, 2, 1.0), 4.0, (1, 4, 2)),
], ids=["partial_smooth_2d", "l1_svm"])
def test_composite_step_evaluates_each_point_once(make, lam, counts,
                                                   monkeypatch):
    """One H product per candidate (r function-value restarts and n
    Newton candidates add one each) and none at the start, whose model is
    psi(x) and f'(x); the momentum point's gradient is carried by
    linearity and costs no product either.  The certified step is the
    prox whose residual passed, so each iteration pays two prox steps,
    each restart one more, and each of the a Newton candidates taken one
    more for its residual test.  psi is evaluated at each model point, the
    start included, and not again at the returned point: the driver takes
    psi's values from the problem.  The l1 rung has a
    restart, and two Newton candidates taken and two refused."""
    prob = make()
    res, log = _counted_step(prob, prob.start_point(), lam, monkeypatch)
    assert res.computable
    iters = _iterations(log)
    it = res.diagnostics["inner_iters"]
    assert len(iters) == it
    r, n, a = (sum(step[i] for step in iters) for i in range(3))
    assert (r, n, a) == counts
    assert log["apply"] == it + r + n
    assert log["psi"] == it + r + n + 1
    assert log["prox"] == 2 * it + r + a
    # the step ends on a taken Newton candidate's residual test
    assert log["events"].endswith("nsp")


def test_a_gradient_restart_costs_no_evaluation_and_cuts_iterations(
        monkeypatch):
    """The prox loop alone, with every reduced solve refused so that no
    Newton candidate is evaluated, on partial_smooth_2d at lambda = 1.
    There the momentum overshoots: without the gradient restart the loop
    takes 23 iterations and two function-value restarts.  With it, no
    function-value restart is needed (psi is evaluated at the start and
    once per iteration), the loop takes 14 iterations, and each reset
    costs nothing: one H product per candidate, none at the start, and
    two prox steps per iteration, as without momentum.  An iteration after a reset starts
    from the momentum-free point z = y, so its candidate's prox input is
    the residual test's input from the iteration before, bit for bit;
    past iteration 1 (counting from 0), which follows the start's
    theta = 1, that shows each reset: one every third iteration.  With
    its Newton candidate the same step takes 2 iterations."""
    prob = partial_smooth_2d()
    res, _ = _counted_step(prob, prob.start_point(), 1.0, monkeypatch)
    assert res.diagnostics == {"inner_iters": 2}
    monkeypatch.setattr(subsolver, "_reduced_solve", lambda *args: None)
    res, log = _counted_step(prob, prob.start_point(), 1.0, monkeypatch)
    it, inputs = res.diagnostics["inner_iters"], log["prox_inputs"]
    assert it == 14
    assert log["psi"] == it + 1
    assert log["apply"] == it
    assert log["prox"] == 2 * it
    # inputs alternate candidate, residual test: 2 i and 2 i - 1
    after_reset = [i for i in range(2, it)
                   if np.array_equal(inputs[2 * i], inputs[2 * i - 1])]
    assert after_reset == [4, 7, 10, 13]


def _model_value(prob, x, H, lam, y):
    d = y - x
    return (float(prob.f_grad(x) @ d) + 0.5 * float(d @ (H @ d))
            + 0.5 * lam * float(d @ d) + prob.psi(y))


@pytest.mark.parametrize("seed, mu, lam", [(1, 1.0, 16.0), (2, 100.0, 1.0)],
                         ids=["dense_support", "empty_support"])
def test_a_newton_step_finishes_an_l1_rung(seed, mu, lam, monkeypatch):
    """l1 with a free intercept is polyhedral, and separable: on the
    identified piece psi is affine, so one reduced solve lands on the
    piece's minimiser and the residual test passes there.  The returned
    point is still the residual's prox, so psi_grad is an exact
    subgradient of mu ||w||_1, to the rounding of (v - p) / t: exactly 0
    on the intercept, at most mu in modulus, and mu sign(w_i) on each
    nonzero weight."""
    prob = l1_svm_problem(300, 20, seed, mu)
    x = prob.start_point()
    res, log = _counted_step(prob, x, lam, monkeypatch)
    assert res.computable
    assert log["events"].count("n") == 1 and "x" not in log["events"]
    assert log["events"].endswith("nsp")
    w, s = res.x_plus[:-1], res.psi_grad
    assert s[-1] == 0.0
    assert np.all(np.abs(s[:-1]) <= mu * (1.0 + 1e-12))
    on = w != 0.0
    assert np.allclose(s[:-1][on], mu * np.sign(w[on]), rtol=1e-12, atol=0.0)
    rng = SplitMix64(0xBEEF)
    base = prob.psi(res.x_plus)
    for y in rng.normals(40 * 21).reshape(40, 21):
        assert prob.psi(y) >= base + s @ (y - res.x_plus) - 1e-12 * mu
    # and the step is a model minimiser: its gradient and s cancel
    H = prob.hess(x)
    d = res.x_plus - x
    model_g = prob.f_grad(x) + H @ d + lam * d
    assert np.linalg.norm(model_g + s) <= 1e-6


def _group_l2_svm(mu, size=4):
    """The 300 x 20 SVM of seed 1 plus mu times the sum of the l2 norms of
    its weights in groups of ``size``: on a piece where a group is nonzero
    psi is curved, so a Newton step there is only a candidate."""
    base = l1_svm_problem(300, 20, 1, 1.0)
    n = 20

    def norms(v):
        return np.linalg.norm(v[:n].reshape(-1, size), axis=1)

    def psi_value(v):
        return mu * float(norms(v).sum())

    def prox(v, t):
        shrink = np.maximum(0.0, 1.0 - t * mu / np.maximum(norms(v), 1e-300))
        out = v.copy()
        out[:n] *= np.repeat(shrink, size)
        return out

    return dataclasses.replace(base, psi_value=psi_value, prox=prox,
                               psi_decrease=None)


def test_newton_candidates_on_a_curved_psi_keep_the_loop_monotone(
        monkeypatch):
    """On a group-l2 psi the Newton candidate linearises psi at s, so the
    safeguard must decide: here it takes some candidates and refuses
    others.  The iterates' model values never rise past the safeguard's
    dead band, and the step lands where the prox loop alone does."""
    prob = _group_l2_svm(21.0)
    x, lam = prob.start_point(), 0.25
    res, log = _counted_step(prob, x, lam, monkeypatch)
    assert res.computable
    iters = _iterations(log)
    assert any(step[2] for step in iters)
    assert any(step[1] and not step[2] for step in iters)
    H = prob.hess(x)
    m_best = _model_value(prob, x, H, lam, x)
    for step in iters:
        for y in step[3]:
            m = _model_value(prob, x, H, lam, y)
            tau = 16.0 * np.finfo(float).eps * max(1.0, abs(m_best))
            assert m <= m_best + tau
            m_best = min(m_best, m)
    monkeypatch.setattr(subsolver, "_reduced_solve", lambda *args: None)
    alone = composite_step(prob, x, prob.f_grad(x), H, lam)
    assert np.linalg.norm(res.x_plus - alone.x_plus) <= 1e-8


@pytest.mark.parametrize("make, lam", [
    (lambda: l1_svm_problem(300, 20, 1, 0.1), 0.25),
    (lambda: l1_svm_problem(300, 20, 2, 1.0), 0.25),
], ids=["one_set", "five_sets"])
def test_each_fixed_set_is_tried_once_per_rung(make, lam, monkeypatch):
    """A fixed set whose Newton candidate has been tried is not tried
    again in the rung.  At mu = 0.1 the rung's one Newton candidate, on
    every coordinate (an empty fixed set), does not finish it; the loop
    then runs over 100 more iterations, and the empty fixed set recurs
    in them without another reduced solve."""
    prob = make()
    x = prob.start_point()
    sets = []
    reduced = subsolver._reduced_solve

    def recorded(A, free, rhs):
        sets.append(tuple(free))
        return reduced(A, free, rhs)

    monkeypatch.setattr(subsolver, "_reduced_solve", recorded)
    res = composite_step(prob, x, prob.f_grad(x), prob.hess(x), lam)
    assert res.computable
    assert len(set(sets)) == len(sets)
    if len(sets) == 1:
        assert res.diagnostics["inner_iters"] > 100
    else:
        assert len(sets) == 5


def test_an_all_fixed_set_is_skipped():
    """A stalled iteration fixes every coordinate; its empty free set has
    no Newton step, and a 0 x 0 factor has no pivots to certify."""
    with pytest.raises(ValueError):
        hilbert._pivots_clear_floor(np.empty(0))
    none, empty = np.empty(0, dtype=int), np.empty(0)
    for A in (np.eye(3), sp.identity(3, format="csr")):
        assert subsolver._reduced_solve(Operator(A), none, empty) is None


@pytest.mark.parametrize("fmt", ["csr", "coo"])
@pytest.mark.parametrize("make, counts", [
    (partial_smooth_2d, (6, 6, 6)),
    (lambda: l1_svm_problem(300, 20, 2, 1.0), (12, 11, 12)),
], ids=["partial_smooth_2d", "l1_svm"])
def test_a_sparse_hessian_takes_the_dense_twins_ladder(make, counts, fmt,
                                                      monkeypatch):
    """The same composite problem with H returned sparse: the prox loop
    applies it and the Newton candidate's reduced system is sliced and
    shifted from it (a COO H is sliced in CSR form).  Each record takes
    the rung its dense twin takes, with as many solves, iterations and
    reduced solves: (solves, iterations, reduced solves) == counts."""
    reduced = subsolver._reduced_solve

    def run(prob):
        calls = []

        def counted(A, free, rhs):
            calls.append(A.kind)
            return reduced(A, free, rhs)

        monkeypatch.setattr(subsolver, "_reduced_solve", counted)
        res = leap_ssn(prob, grad_tol=1e-6)
        assert res.status == "converged"
        return [r.j for r in res.trace.records], calls, (
            res.solves, res.iterations, len(calls))

    prob = make()
    sparse = dataclasses.replace(
        prob, hess=lambda x: sp.csr_matrix(prob.hess(x)).asformat(fmt))
    ladder, kinds, dense_counts = run(prob)
    sparse_ladder, sparse_kinds, sparse_counts = run(sparse)
    assert set(kinds) == {"dense"} and set(sparse_kinds) == {"sparse"}
    assert sparse_ladder == ladder
    assert sparse_counts == dense_counts == counts


def test_composite_step_gives_up_on_indefinite_model():
    """With negative curvature the model has no minimiser: the first
    candidate meets a direction with <(H + lambda) d, d> <= 0 and the trial
    is refused on the spot, before the iterate can overflow."""
    prob = partial_smooth_2d()
    x = prob.x0.copy()
    g = prob.f_grad(x)
    H = np.diag([-50.0, -50.0])
    res = composite_step(prob, x, g, H, 1.0)
    assert not res.computable
    assert res.x_plus is None
    assert res.diagnostics == {"inner_iters": 1, "stop": "indefinite"}


def test_an_indefinite_newton_candidate_ends_the_step(monkeypatch):
    """The prox steps can keep to directions of positive curvature while
    the Newton candidate takes one of negative curvature.  With psi =
    1000 |y_0| the loop pins y_0 at 0 and certifies (H + I)_FF = 1 on
    F = {1}, but the candidate's step from x, about (-1, -7), has
    <(H + I) d, d> < 0: the step ends there, after its one certified
    reduced solve (n) and the candidate's psi (s)."""
    def prox(v, t):
        out = v.copy()
        out[0] = np.sign(v[0]) * max(abs(v[0]) - 1000.0 * t, 0.0)
        return out

    H = np.array([[49.0, -7.5], [-7.5, 0.0]])
    prob = Problem(dim=2, f_value=lambda x: 0.0,
                   f_grad=lambda x: np.array([0.0, -0.5]), hess=lambda x: H,
                   psi_value=lambda y: 1000.0 * abs(y[0]), prox=prox)
    res, log = _counted_step(prob, np.array([1.0, 0.0]), 1.0, monkeypatch)
    assert not res.computable
    assert res.diagnostics == {"inner_iters": 3, "stop": "indefinite"}
    assert log["events"].count("n") == 1 and log["events"].endswith("ns")
    d = log["points"][-1] - np.array([1.0, 0.0])
    assert d @ (H + np.eye(2)) @ d < 0.0


def test_composite_step_gives_up_on_a_nonfinite_iterate():
    # a NaN gradient on a positive definite model makes the first iterate
    # non-finite; the loop stops there, not at INNER_MAXIT
    prob = partial_smooth_2d()
    x = prob.x0.copy()
    g = prob.f_grad(x)
    g[1] = np.nan
    res = composite_step(prob, x, g, prob.hess(x), 1.0)
    assert not res.computable
    assert res.diagnostics == {"inner_iters": 1, "stop": "nonfinite"}


def test_composite_step_stops_at_its_iteration_budget(monkeypatch):
    # no other test reaches INNER_MAXIT: with a cap of 2 the l1 SVM's first
    # rung runs out of iterations before its residual passes
    monkeypatch.setattr(subsolver, "INNER_MAXIT", 2)
    prob = l1_svm_problem(300, 20, 1, 1.0)
    x = prob.start_point()
    res = composite_step(prob, x, prob.f_grad(x), prob.hess(x), 1.0)
    assert not res.computable
    assert res.diagnostics == {"inner_iters": 2, "stop": "budget"}


def test_a_far_minimiser_certifies_at_its_own_rounding_floor():
    """f(y) = 1/2 ||y - b||^2 with b = (0.5, 1e7) and psi = |y_0|, from
    x = 0 at lambda = 2: the minimiser (0, b_1 / 3) lies far from x, and
    the rounding of its second coordinate alone leaves the residual above
    INNER_TOL times the base point's scale, 1.  Floored at the iterate's
    own rounding level the test passes after 2 iterations, where a test
    at the base point's scale alone never passes and runs out all
    INNER_MAXIT."""
    b = np.array([0.5, 1e7])

    def prox(v, t):
        return np.array([np.sign(v[0]) * max(abs(v[0]) - t, 0.0), v[1]])

    prob = Problem(dim=2, f_value=lambda y: 0.5 * float((y - b) @ (y - b)),
                   f_grad=lambda y: y - b, hess=lambda y: np.eye(2),
                   psi_value=lambda y: abs(float(y[0])), prox=prox)
    x = np.zeros(2)
    res = composite_step(prob, x, prob.f_grad(x), np.eye(2), 2.0)
    assert res.diagnostics == {"inner_iters": 2}
    assert res.x_plus[0] == 0.0 and res.psi_grad[0] == 0.5
    assert res.x_plus[1] == pytest.approx(b[1] / 3.0, rel=1e-15)


def _l1_svm_rungs(newton=True):
    """Solve the l1 SVM at mu = 1 on data seed 2 and summarise what its
    rungs did; without ``newton`` every reduced solve is refused, which
    leaves the prox loop alone."""
    rungs = []
    step, reduced = driver.composite_step, subsolver._reduced_solve

    def recorded(*args, **kwargs):
        sub = step(*args, **kwargs)
        rungs.append(sub.diagnostics)
        return sub

    driver.composite_step = recorded
    if not newton:
        subsolver._reduced_solve = lambda *args: None
    try:
        res = leap_ssn(l1_svm_problem(300, 20, 2, 1.0), grad_tol=1e-6)
    finally:
        driver.composite_step, subsolver._reduced_solve = step, reduced
    return {"status": res.status, "solves": res.solves,
            "iterations": res.iterations, "F": res.F,
            "stalled": [d["inner_iters"] for d in rungs
                        if d.get("stop") == "stalled"],
            "inner_iters": sum(d["inner_iters"] for d in rungs)}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_composite_step_stops_at_the_safeguard_fixed_point(blas_threads):
    """On the l1 SVM the prox loop alone stalls: one rung's safeguard
    rejects the restart from the best point in its 21st iteration, which
    leaves the loop at a fixed point, and the loop must give up there.
    With the Newton candidates no rung stalls, and the run takes fewer
    solves and far fewer inner iterations.  Neither run's solve count,
    iteration count or objective may move, at either thread count.  Each
    thread count gets a fresh process, since BLAS reads it at load time."""
    code = ("import json, runpy; f = runpy.run_path("
            f"{__file__!r})['_l1_svm_rungs']; "
            "print(json.dumps([f(), f(newton=False)]))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": blas_threads})
    assert proc.returncode == 0, proc.stderr
    newton, alone = json.loads(proc.stdout.splitlines()[-1])
    assert newton == {"status": "converged", "solves": 12, "iterations": 11,
                      "F": 53.921903336717975, "stalled": [],
                      "inner_iters": 24}
    assert alone["status"] == "converged"
    assert (alone["solves"], alone["iterations"]) == (14, 12)
    assert alone["F"] == 53.92190333671796
    assert alone["stalled"] == [21]
    assert alone["inner_iters"] < INNER_MAXIT


def test_composite_step_counts_one_trial_solve():
    # the driver counts each rung as one solve, whatever the inner loop did
    res = leap_ssn(partial_smooth_2d(), grad_tol=1e-10)
    recs = res.trace.records
    assert res.solves == recs[-1].cum_solves == sum(r.j + 1 for r in recs)
