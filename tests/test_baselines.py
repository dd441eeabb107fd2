"""Unregularised Newton baselines: one-solve quadratics, honest failures."""

import dataclasses
import json

import numpy as np
import pytest

from leapssn import (Problem, backtracking_newton, driver, leap_ssn,
                     plain_newton)
from leapssn.suite import partial_smooth_2d, plate_problem, quadratic, rosenbrock
from leapssn.suite.registry import broken_gradient_problem


def test_all_kinds_converge_in_one_solve_on_a_quadratic():
    prob = quadratic()
    xstar = prob.project_solution(prob.x0)
    x0 = xstar + 3.0
    for runner in (plain_newton, backtracking_newton):
        res = runner(prob, x0=x0)
        assert res.status == "converged", runner.__name__
        assert res.solves == 1, runner.__name__
        assert np.linalg.norm(res.x - xstar) <= 1e-8
        # a start within tolerance is tested before any solve
        start = runner(prob, x0=xstar)
        assert (start.status, start.solves, start.iterations) == (
            "converged", 0, 0), runner.__name__


def test_backtracking_is_monotone_on_rosenbrock():
    prob = rosenbrock(n=2)
    res = backtracking_newton(prob, grad_tol=1e-8)
    assert res.status == "converged"
    Fs = [res.trace.F0] + [r.F for r in res.trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(Fs, Fs[1:]))
    assert np.allclose(res.x, np.ones(2), atol=1e-6)


def test_backtracking_evaluates_f_once_at_each_accepted_point():
    # the line search's f at the trial it accepts is the record's F, so f
    # is not evaluated at that point again
    prob = rosenbrock(n=2)
    seen = []

    def f_value(x):
        seen.append(x.copy())
        return prob.f_value(x)

    res = backtracking_newton(dataclasses.replace(prob, f_value=f_value),
                              grad_tol=1e-8)
    assert res.status == "converged"
    assert np.array_equal(seen[0], res.trace.x0)
    where = []
    for x, r in zip(res.trace.iterates, res.trace.records):
        hits = [i for i, y in enumerate(seen) if np.array_equal(x, y)]
        assert len(hits) == 1
        where.append(hits[0])
        assert r.F == prob.f_value(x)
    # every other call is a rejected trial before an accepted one
    assert where == sorted(where) and where[-1] == len(seen) - 1
    assert len(seen) > 1 + len(where)     # some trials were rejected


def test_plain_newton_fails_where_regularisation_succeeds():
    """Large penalty weight makes the active-set system numerically singular
    for the pure Newton step; the adaptive solver still gets through."""
    prob = plate_problem(n=33, gamma=1e6)
    plain = plain_newton(prob, grad_tol=1e-8)
    assert plain.status == "subproblem_failure"

    adaptive = leap_ssn(prob, grad_tol=1e-8, max_solves=300)
    assert adaptive.status == "converged"


def test_a_failed_step_reports_only_recorded_state():
    # f = (x - 20)^2 / 2 is +inf from x = 5 on, so the full Newton step
    # from x0 = 1 lands on x = 20, where F is not finite
    prob = Problem(dim=1,
                   f_value=lambda x: 0.5 * (x[0] - 20.0) ** 2 if x[0] < 5.0
                   else np.inf,
                   f_grad=lambda x: x - 20.0, hess=lambda x: np.eye(1))
    res = plain_newton(prob, x0=[1.0])
    assert res.status == "subproblem_failure"
    assert res.iterations == 0 and res.solves == 1
    assert np.array_equal(res.x, res.trace.x0) and res.x is not res.trace.x0
    assert res.F == res.trace.F0 == 180.5
    assert res.grad_dual_norm == res.trace.g0_norm == 19.0
    json.dumps(res.F, allow_nan=False)


def test_an_exhausted_line_search_reports_the_start_state():
    # broken_gradient's f' carries a bias of 1e-3 in x_0, so from x_0 =
    # -9e-4 the Newton direction -f' = (-1e-4, 0) claims a descent slope
    # while every step along it moves away from the minimiser at 0: each
    # of the 41 dyadic step lengths fails the Armijo test
    prob = broken_gradient_problem()
    seen = []

    def f_value(x):
        seen.append(x.copy())
        return prob.f_value(x)

    res = backtracking_newton(dataclasses.replace(prob, f_value=f_value),
                              x0=[-9e-4, 0.0])
    assert res.status == "subproblem_failure"
    assert res.iterations == 0 and res.solves == 1
    assert len(seen) == 1 + 41
    assert np.array_equal(res.x, res.trace.x0)
    assert res.F == res.trace.F0 == prob.f_value(res.trace.x0)
    assert res.grad_dual_norm == res.trace.g0_norm


def test_baselines_reject_composite_problems():
    with pytest.raises(ValueError):
        plain_newton(partial_smooth_2d())


def test_config_validation():
    prob = quadratic()
    for runner in (plain_newton, backtracking_newton):
        for bad in ({"grad_tol": 0.0}, {"grad_tol": -1e-8},
                    {"max_solves": 0}):
            with pytest.raises(ValueError):
                runner(prob, **bad)


def test_records_and_config_shape():
    prob = quadratic()
    for runner, solver in ((plain_newton, "plain"),
                           (backtracking_newton, "backtracking")):
        res = runner(prob, x0=prob.project_solution(prob.x0) + 1.0,
                     grad_tol=1e-9, max_solves=9)
        assert res.trace.config == {"problem": prob.name, "dim": prob.dim,
                                    "solver": solver, "grad_tol": 1e-9,
                                    "max_solves": 9,
                                    "blas_threads": driver.blas_threads()}
        assert res.trace.records
        for r in res.trace.records:
            assert r.j == 0 and r.lam == 0.0 and r.Lam == 0.0
            assert r.cum_solves == r.k + 1


def test_the_last_iterate_within_the_outer_cap_is_tested(monkeypatch):
    # one step solves the quadratic, so a one-iteration run has converged
    monkeypatch.setattr(driver, "MAX_OUTER", 1)
    for runner in (plain_newton, backtracking_newton):
        res = runner(quadratic())
        assert res.status == "converged", runner.__name__
        assert res.iterations == res.solves == 1


def test_no_solve_budget_is_accepted():
    for runner in (plain_newton, backtracking_newton):
        res = runner(quadratic(), max_solves=None)
        assert res.status == "converged", runner.__name__
        assert res.trace.config["max_solves"] is None


def test_an_oscillating_newton_run_stops_at_the_outer_cap():
    # f = |x|^(3/2): every full Newton step maps x to -x, so from x0 = 1 the
    # run never converges and only the outer cap, one solve per iteration,
    # stops it
    prob = Problem(dim=1, f_value=lambda x: abs(x[0]) ** 1.5,
                   f_grad=lambda x: 1.5 * np.sign(x) * np.sqrt(np.abs(x)),
                   hess=lambda x: np.array([[0.75 / np.sqrt(abs(x[0]))]]))
    res = plain_newton(prob, x0=[1.0])
    assert res.status == "outer_budget"
    assert res.iterations == res.solves == driver.MAX_OUTER == 500
    assert abs(res.x[0]) == pytest.approx(1.0)


def test_solve_budget_status():
    # from zeros the second Newton step already lands on the minimiser, so
    # cap the budget at a single factorisation to see the starved status
    prob = rosenbrock(n=4)
    res = plain_newton(prob, grad_tol=1e-12, max_solves=1)
    assert res.status == "solve_budget"
    assert res.solves == 1


@pytest.mark.parametrize("solver", [leap_ssn, plain_newton,
                                    backtracking_newton])
def test_a_nonfinite_start_is_refused_before_any_solve(solver):
    prob = quadratic()
    x0 = prob.project_solution(prob.x0).copy()
    x0[3] = np.nan
    with pytest.raises(ValueError, match="not finite at the start point"):
        solver(prob, x0=x0)
