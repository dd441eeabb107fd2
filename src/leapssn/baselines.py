"""Unregularised Newton baselines: plain and Armijo backtracking.

Both solve the unregularised system ``H(x_k) d = -f'(x_k)`` each
iteration and differ only in the step length: ``plain_newton`` always
takes the full step, ``backtracking_newton`` halves it until the Armijo
condition holds.

They run on smooth problems only and have no regularisation mechanism by
design: a singular or indefinite clamped system is a failure, not a
retry.  Results and traces share the adaptive driver's types so sweep
tooling can tabulate everything side by side, with the same accounting
(one counted solve per factorisation).
"""

from __future__ import annotations

import numpy as np

from .driver import (CONVERGED, OUTER_BUDGET, SOLVE_BUDGET,
                     SUBPROBLEM_FAILURE, Record, Result, Trace)
from .hilbert import solve_posdef
from .problem import Problem

_STEP_LIMIT = 1e13   # a "solution" this large is a blow-up, not a step
_ARMIJO_C = 1e-4     # sufficient-decrease fraction of the Armijo test
_SHRINK = 0.5        # dyadic step lengths 1, 1/2, ..., 2^-_MAX_HALVINGS
_MAX_HALVINGS = 40


def _armijo_step(problem, x, d, F, slope):
    """Longest dyadic step with sufficient decrease, or None."""
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        if float(problem.f_value(x + t * d)) <= F + _ARMIJO_C * t * slope:
            return t
        t *= _SHRINK
    return None


def _newton(problem, x0, solver, grad_tol, max_outer, max_solves,
            armijo) -> Result:
    """The baselines' Newton loop; ``armijo=False`` takes full steps."""
    if not grad_tol > 0:
        raise ValueError("grad_tol must be positive")
    if max_outer < 1 or max_solves < 1:
        raise ValueError("budgets must be at least 1")
    if not problem.smooth:
        raise ValueError("baselines handle smooth problems only")
    x = problem.start_point(x0)
    g = np.asarray(problem.f_grad(x), dtype=float)
    gpn = problem.metric.dual_norm(g)
    F = float(problem.f_value(x))
    config = {"problem": problem.name, "dim": problem.dim,
              "solver": solver, "grad_tol": grad_tol,
              "max_outer": max_outer, "max_solves": max_solves}
    trace = Trace(x0=x.copy(), F0=F, g0_norm=gpn, config=config)
    solves = 0
    status = OUTER_BUDGET

    for k in range(max_outer):
        if gpn <= grad_tol:
            status = CONVERGED
            break
        if solves >= max_solves:
            status = SOLVE_BUDGET
            break
        d = solve_posdef(problem.hess(x), -g)
        solves += 1
        if d is None or not np.all(np.isfinite(d)) or np.abs(d).max() > _STEP_LIMIT:
            status = SUBPROBLEM_FAILURE
            break

        t = 1.0
        if armijo:
            t = _armijo_step(problem, x, d, F, float(g @ d))
            if t is None:
                status = SUBPROBLEM_FAILURE
                break

        x = x + t * d
        g = np.asarray(problem.f_grad(x), dtype=float)
        gpn = problem.metric.dual_norm(g)
        F = float(problem.f_value(x))
        if not np.isfinite(F) or not np.isfinite(gpn):
            status = SUBPROBLEM_FAILURE
            break
        trace.records.append(Record(k=k, j=0, lam=0.0, Lam=0.0, F=F,
                                    grad_dual_norm=gpn,
                                    step_norm=problem.metric.norm(t * d),
                                    cum_solves=solves))
        trace.iterates.append(x.copy())
        trace.grads.append(g.copy())

    return Result(x=x, status=status, F=F, grad_dual_norm=gpn,
                  iterations=len(trace.records), solves=solves, trace=trace)


def plain_newton(problem: Problem, x0=None, *, grad_tol=1e-8, max_outer=500,
                 max_solves=10000) -> Result:
    """Full-step (semismooth) Newton: solve ``H(x) d = -f'(x)``, take ``x + d``."""
    return _newton(problem, x0, "plain", grad_tol, max_outer, max_solves,
                   armijo=False)


def backtracking_newton(problem: Problem, x0=None, *, grad_tol=1e-8,
                        max_outer=500, max_solves=10000) -> Result:
    """Newton with Armijo backtracking on the objective."""
    return _newton(problem, x0, "backtracking", grad_tol, max_outer,
                   max_solves, armijo=True)
