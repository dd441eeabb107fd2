"""Unregularised Newton baselines: plain, backtracking, l2-linesearch.

All three solve the unregularised system ``H(x_k) d = -f'(x_k)`` each
iteration and differ only in the step length: ``plain`` always takes the
full step, ``backtracking`` halves until the Armijo condition holds, and
``l2_linesearch`` picks the dyadic step with the smallest gradient dual
norm (first strict decrease wins, otherwise the overall minimiser -- an
approximation of residual-minimising damping; the exact rule it stands
in for is not pinned down, so its iteration counts are qualitative).

They run on smooth problems only and have no regularisation mechanism by
design: a singular or indefinite clamped system is a failure, not a
retry.  Results and traces share the adaptive driver's types so sweep
tooling can tabulate everything side by side, with the same accounting
(one counted solve per factorisation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import (CONVERGED, OUTER_BUDGET, SOLVE_BUDGET,
                     SUBPROBLEM_FAILURE, Record, Result, Trace)
from .hilbert import solve_posdef
from .problem import Problem

_STEP_LIMIT = 1e13   # a "solution" this large is a blow-up, not a step
_SHRINK = 0.5        # dyadic step lengths 1, 1/2, ..., 2^-_MAX_HALVINGS
_MAX_HALVINGS = 40

BASELINE_KINDS = ("plain", "backtracking", "l2_linesearch")


@dataclass
class BaselineConfig:
    kind: str = "plain"
    grad_tol: float = 1e-8
    max_outer: int = 500
    max_linear_solves: int = 10000
    armijo_c: float = 1e-4

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_outer < 1 or self.max_linear_solves < 1:
            raise ValueError("budgets must be at least 1")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")


def _dyadic_steps():
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        yield t
        t *= _SHRINK


def baseline_run(problem: Problem, x0=None,
                 cfg: BaselineConfig = None) -> Result:
    """Run one of the Newton baselines; see the module docstring."""
    cfg = cfg if cfg is not None else BaselineConfig()
    if not problem.smooth:
        raise ValueError("baselines handle smooth problems only")
    x = problem.start_point(x0)
    g = np.asarray(problem.f_grad(x), dtype=float)
    gpn = problem.metric.dual_norm(g)
    F = float(problem.f_value(x))
    config = {"problem": problem.name, "dim": problem.dim,
              "solver": cfg.kind, "grad_tol": cfg.grad_tol,
              "max_outer": cfg.max_outer,
              "max_solves": cfg.max_linear_solves}
    trace = Trace(x0=x.copy(), F0=F, g0_norm=gpn, config=config)
    solves = 0
    status = OUTER_BUDGET

    for k in range(cfg.max_outer):
        if gpn <= cfg.grad_tol:
            status = CONVERGED
            break
        if solves >= cfg.max_linear_solves:
            status = SOLVE_BUDGET
            break
        d = solve_posdef(problem.hess(x), -g)
        solves += 1
        if d is None or not np.all(np.isfinite(d)) or np.abs(d).max() > _STEP_LIMIT:
            status = SUBPROBLEM_FAILURE
            break

        if cfg.kind == "plain":
            t = 1.0
        elif cfg.kind == "backtracking":
            slope = float(g @ d)
            t = None
            for cand in _dyadic_steps():
                if (float(problem.f_value(x + cand * d))
                        <= F + cfg.armijo_c * cand * slope):
                    t = cand
                    break
            if t is None:
                status = SUBPROBLEM_FAILURE
                break
        else:  # l2_linesearch
            t = None
            best_t, best_gpn = None, np.inf
            for cand in _dyadic_steps():
                gc = problem.metric.dual_norm(
                    np.asarray(problem.f_grad(x + cand * d), dtype=float))
                if gc < gpn:
                    t = cand
                    break
                if gc < best_gpn:
                    best_t, best_gpn = cand, gc
            if t is None:
                t = best_t

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

    trace.status = status
    return Result(x=x, status=status, F=F, grad_dual_norm=gpn,
                  iterations=len(trace.records), solves=solves, trace=trace)


def plain_newton(problem: Problem, x0=None, *, grad_tol=1e-8, max_outer=500,
                 max_solves=10000) -> Result:
    """Full-step (semismooth) Newton: solve ``H(x) d = -f'(x)``, take ``x + d``."""
    return baseline_run(problem, x0, BaselineConfig(
        kind="plain", grad_tol=grad_tol, max_outer=max_outer,
        max_linear_solves=max_solves))


def backtracking_newton(problem: Problem, x0=None, *, grad_tol=1e-8,
                        max_outer=500, max_solves=10000,
                        armijo_c=1e-4) -> Result:
    """Newton with Armijo backtracking on the objective."""
    return baseline_run(problem, x0, BaselineConfig(
        kind="backtracking", grad_tol=grad_tol, max_outer=max_outer,
        max_linear_solves=max_solves, armijo_c=armijo_c))


def l2_newton(problem: Problem, x0=None, *, grad_tol=1e-8, max_outer=500,
              max_solves=10000) -> Result:
    """Newton damped by dyadic gradient-norm minimisation."""
    return baseline_run(problem, x0, BaselineConfig(
        kind="l2_linesearch", grad_tol=grad_tol, max_outer=max_outer,
        max_linear_solves=max_solves))
