"""Regularised subproblem solvers: exactness, certificates, refusal cases."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from leapssn import (Operator, composite_step, driver, leap_ssn, smooth_step,
                     subsolver)
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


def _counted_step(base, x, lam):
    """Run ``composite_step`` from ``x`` at ``lam`` with its H products,
    prox calls (and their inputs) and psi evaluations counted."""
    counts = {"apply": 0, "prox": 0, "psi": 0}
    prox_inputs = []

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def prox(v, t):
        prox_inputs.append(v.copy())
        return base.prox(v, t)

    prob = dataclasses.replace(base, prox=counted("prox", prox),
                               psi_value=counted("psi", base.psi_value))
    H = Operator(prob.hess(x))
    H.norm_estimate()
    H.apply = counted("apply", H.apply)
    res = composite_step(prob, x, prob.f_grad(x), H, lam)
    assert res.computable
    return res.diagnostics["inner_iters"], counts, prox_inputs


@pytest.mark.parametrize("make, lam", [
    (partial_smooth_2d, 0.5),
    (lambda: l1_svm_problem(300, 20, 1, 1.0), 1.0),
], ids=["partial_smooth_2d", "l1_svm"])
def test_composite_step_evaluates_each_point_once(make, lam):
    """One H product per model point: the start and each candidate (r
    function-value restarts add one candidate each); the momentum point's
    gradient is carried by linearity and costs no product.  The certified
    step is the prox whose residual passed, so each iteration pays two prox
    steps and each restart one more.  psi is evaluated at the start and at
    each candidate, which counts r, and not again at the returned point:
    the driver takes psi's values from the problem."""
    prob = make()
    it, counts, _ = _counted_step(prob, prob.start_point(), lam)
    restarts = counts["psi"] - it - 1
    assert restarts >= 1
    assert counts["apply"] == it + restarts + 1
    assert counts["prox"] == 2 * it + restarts


def test_a_gradient_restart_costs_no_evaluation_and_cuts_iterations():
    """On partial_smooth_2d at lambda = 1 the momentum overshoots: without
    the gradient restart the loop takes 23 iterations and two
    function-value restarts.  With it, no function-value restart is
    needed (psi is evaluated at the start and once per iteration), the
    loop takes 14 iterations, and each reset costs nothing: one H product
    per candidate and two prox steps per iteration, as without momentum.
    An iteration after a reset starts from the momentum-free point z = y,
    so its candidate's prox input is the residual test's input from the
    iteration before, bit for bit; past iteration 1 (counting from 0),
    which follows the start's theta = 1, that shows each reset: one every
    third iteration."""
    prob = partial_smooth_2d()
    it, counts, inputs = _counted_step(prob, prob.start_point(), 1.0)
    assert it == 14
    assert counts["psi"] == it + 1
    assert counts["apply"] == it + 1
    assert counts["prox"] == 2 * it
    # inputs alternate candidate, residual test: 2 i and 2 i - 1
    after_reset = [i for i in range(2, it)
                   if np.array_equal(inputs[2 * i], inputs[2 * i - 1])]
    assert after_reset == [4, 7, 10, 13]


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


def _l1_svm_rungs():
    """Solve the l1 SVM at mu = 1 on data seed 2 and summarise what its
    rungs did."""
    rungs = []
    step = driver.composite_step

    def recorded(*args, **kwargs):
        sub = step(*args, **kwargs)
        rungs.append(sub.diagnostics)
        return sub

    driver.composite_step = recorded
    try:
        res = leap_ssn(l1_svm_problem(300, 20, 2, 1.0), grad_tol=1e-6)
    finally:
        driver.composite_step = step
    return {"status": res.status, "solves": res.solves,
            "iterations": res.iterations, "F": res.F,
            "stalled": [d["inner_iters"] for d in rungs
                        if d.get("stop") == "stalled"],
            "inner_iters": sum(d["inner_iters"] for d in rungs)}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_composite_step_stops_at_the_safeguard_fixed_point(blas_threads):
    """On the l1 SVM one rung's safeguard rejects the restart from the best
    point in its 21st iteration, which leaves the loop at a fixed point; the
    loop must give up there, and no solve count, iteration count or
    objective may move.  Each thread count gets a fresh process, since BLAS
    reads it at load time."""
    code = ("import json, runpy; print(json.dumps("
            f"runpy.run_path({__file__!r})['_l1_svm_rungs']()))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": blas_threads})
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["status"] == "converged"
    assert (run["solves"], run["iterations"]) == (14, 12)
    assert run["F"] == 53.92190333671796
    assert run["stalled"] == [21]
    assert run["inner_iters"] < INNER_MAXIT


def test_composite_step_counts_one_trial_solve():
    # the driver counts each rung as one solve, whatever the inner loop did
    res = leap_ssn(partial_smooth_2d(), grad_tol=1e-10)
    recs = res.trace.records
    assert res.solves == recs[-1].cum_solves == sum(r.j + 1 for r in recs)
