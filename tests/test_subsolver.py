"""Regularised subproblem solvers: exactness, certificates, refusal cases."""

import numpy as np
import pytest

from leapssn import composite_step, leap_ssn, smooth_step
from leapssn.suite import SplitMix64, partial_smooth_2d, quadratic, rosenbrock


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
    xstar = prob.solution
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
        x = prob.solution + rng.normals(prob.dim)
        g = prob.f_grad(x)
        H = prob.hess(x)
        lam = float(rng.uniforms(1)[0]) * 4.0 + 0.25
        a = smooth_step(prob, x, g, H, lam)
        b = composite_step(prob, x, g, H, lam)
        assert b.computable
        assert np.linalg.norm(a.x_plus - b.x_plus) <= 1e-8


def test_composite_step_gives_up_on_indefinite_model():
    """With enough negative curvature the monotone loop cannot certify a
    minimiser and must report the trial as not computable."""
    prob = partial_smooth_2d()
    x = prob.x0.copy()
    g = prob.f_grad(x)
    H = np.diag([-50.0, -50.0])
    res = composite_step(prob, x, g, H, 1.0, maxit=300)
    assert not res.computable
    assert res.x_plus is None


def test_composite_step_counts_one_trial_solve():
    # the driver counts each rung as one solve, whatever the inner loop did
    res = leap_ssn(partial_smooth_2d(), grad_tol=1e-10)
    recs = res.trace.records
    assert res.solves == recs[-1].cum_solves == sum(r.j + 1 for r in recs)
