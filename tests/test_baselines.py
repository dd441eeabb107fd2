"""Unregularised Newton baselines: one-solve quadratics, honest failures."""

import numpy as np
import pytest

from leapssn import backtracking_newton, leap_ssn, plain_newton
from leapssn.suite import partial_smooth_2d, plate_problem, quadratic, rosenbrock


def test_all_kinds_converge_in_one_solve_on_a_quadratic():
    prob = quadratic()
    x0 = prob.solution + 3.0
    for runner in (plain_newton, backtracking_newton):
        res = runner(prob, x0=x0)
        assert res.status == "converged", runner.__name__
        assert res.solves == 1, runner.__name__
        assert np.linalg.norm(res.x - prob.solution) <= 1e-8


def test_backtracking_is_monotone_on_rosenbrock():
    prob = rosenbrock(n=2)
    res = backtracking_newton(prob, grad_tol=1e-8, max_outer=200)
    assert res.status == "converged"
    Fs = [res.trace.F0] + [r.F for r in res.trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(Fs, Fs[1:]))
    assert np.allclose(res.x, np.ones(2), atol=1e-6)


def test_plain_newton_fails_where_regularisation_succeeds():
    """Large penalty weight makes the active-set system numerically singular
    for the pure Newton step; the adaptive solver still gets through."""
    prob = plate_problem(n=33, gamma=1e6)
    plain = plain_newton(prob, grad_tol=1e-8, max_outer=300)
    assert plain.status == "subproblem_failure"

    adaptive = leap_ssn(prob, grad_tol=1e-8, max_solves=300)
    assert adaptive.status == "converged"


def test_baselines_reject_composite_problems():
    with pytest.raises(ValueError):
        plain_newton(partial_smooth_2d())


def test_config_validation():
    prob = quadratic()
    for runner in (plain_newton, backtracking_newton):
        for bad in ({"grad_tol": 0.0}, {"grad_tol": -1e-8},
                    {"max_outer": 0}, {"max_solves": 0}):
            with pytest.raises(ValueError):
                runner(prob, **bad)


def test_records_and_config_shape():
    prob = quadratic()
    for runner, solver in ((plain_newton, "plain"),
                           (backtracking_newton, "backtracking")):
        res = runner(prob, x0=prob.solution + 1.0, grad_tol=1e-9,
                     max_outer=7, max_solves=9)
        assert res.trace.config == {"problem": prob.name, "dim": prob.dim,
                                    "solver": solver, "grad_tol": 1e-9,
                                    "max_outer": 7, "max_solves": 9}
        assert res.trace.records
        for r in res.trace.records:
            assert r.j == 0 and r.lam == 0.0 and r.Lam == 0.0
            assert r.cum_solves == r.k + 1


def test_solve_budget_status():
    # from zeros the second Newton step already lands on the minimiser, so
    # cap the budget at a single factorisation to see the starved status
    prob = rosenbrock(n=4)
    res = plain_newton(prob, grad_tol=1e-12, max_solves=1)
    assert res.status == "solve_budget"
    assert res.solves == 1
