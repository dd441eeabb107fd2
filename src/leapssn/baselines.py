"""Unregularised Newton baselines: plain and Armijo backtracking.

Both solve the unregularised system ``H(x_k) d = -f'(x_k)`` each
iteration and differ only in the step length: ``plain_newton`` always
takes the full step, ``backtracking_newton`` halves it until the Armijo
condition holds.

They run on smooth problems only and have no regularisation mechanism by
design: a singular or indefinite clamped system is a failure, not a
retry.  A run opens, records and reports through the adaptive driver's
``start_run``, ``Trace.accept`` and ``Trace.result``, so sweep tooling can
tabulate everything side by side, with the same accounting (one counted
solve per factorisation, so ``driver.MAX_OUTER`` caps a run at as many
solves); a failed step reports the last recorded state.
"""

from __future__ import annotations

import numpy as np

from . import driver
from .driver import (CONVERGED, OUTER_BUDGET, SOLVE_BUDGET,
                     SUBPROBLEM_FAILURE, Result, start_run)
from .hilbert import solve_posdef
from .problem import Problem

_STEP_LIMIT = 1e13   # a "solution" this large is a blow-up, not a step
_ARMIJO_C = 1e-4     # sufficient-decrease fraction of the Armijo test
_SHRINK = 0.5        # dyadic step lengths 1, 1/2, ..., 2^-_MAX_HALVINGS
_MAX_HALVINGS = 40


def _armijo_step(problem, x, d, F, slope):
    """Longest dyadic step with sufficient decrease and f at its point,
    or None."""
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        F_trial = float(problem.f_value(x + t * d))
        if F_trial <= F + _ARMIJO_C * t * slope:
            return t, F_trial
        t *= _SHRINK
    return None


def _newton(problem, x0, solver, grad_tol, max_solves) -> Result:
    """The baselines' Newton loop; the ``"plain"`` solver takes full steps.
    It returns at convergence (a start that meets ``grad_tol`` included) and
    at either budget as :func:`driver.leap_ssn` does, and with
    ``SUBPROBLEM_FAILURE`` at a refused or blown-up solve, a failed line
    search or a non-finite F or f'."""
    if not problem.smooth:
        raise ValueError("baselines handle smooth problems only")
    x, g, trace = start_run(problem, x0, grad_tol, max_solves, solver=solver)
    if trace.g0_norm <= grad_tol:
        return trace.result(CONVERGED, 0)
    F, solves = trace.F0, 0

    for k in range(driver.MAX_OUTER):
        if max_solves is not None and solves >= max_solves:
            return trace.result(SOLVE_BUDGET, solves)
        d = solve_posdef(problem.hess(x), -g)
        solves += 1
        if d is None or np.abs(d).max() > _STEP_LIMIT:  # finite when certified
            return trace.result(SUBPROBLEM_FAILURE, solves)

        t, F_next = 1.0, None
        if solver == "backtracking":
            step = _armijo_step(problem, x, d, F, float(g @ d))
            if step is None:
                return trace.result(SUBPROBLEM_FAILURE, solves)
            t, F_next = step    # the line search evaluated f there
        x = x + t * d
        g = np.asarray(problem.f_grad(x), dtype=float)
        gpn = problem.metric.dual_norm(g)
        F = float(problem.f_value(x)) if F_next is None else F_next
        if not np.isfinite(F) or not np.isfinite(gpn):
            return trace.result(SUBPROBLEM_FAILURE, solves)
        trace.accept(x, g, k=k, j=0, lam=0.0, Lam=0.0, F=F,
                     grad_dual_norm=gpn, step_norm=problem.metric.norm(t * d),
                     cum_solves=solves)
        if gpn <= grad_tol:
            return trace.result(CONVERGED, solves)

    return trace.result(OUTER_BUDGET, solves)


def plain_newton(problem: Problem, x0=None, *, grad_tol=1e-8,
                 max_solves=None) -> Result:
    """Full-step (semismooth) Newton: solve ``H(x) d = -f'(x)``, take ``x + d``."""
    return _newton(problem, x0, "plain", grad_tol, max_solves)


def backtracking_newton(problem: Problem, x0=None, *, grad_tol=1e-8,
                        max_solves=None) -> Result:
    """Newton with Armijo backtracking on the objective."""
    return _newton(problem, x0, "backtracking", grad_tol, max_solves)
