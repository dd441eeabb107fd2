"""Adaptive proximal Levenberg-Marquardt / semismooth Newton driver.

Each outer iteration fixes the current point ``x_k``, whose ``F(x_k)`` and
``f'(x_k)`` carry over from the previous acceptance, wraps ``H(x_k)`` once
as an :class:`~leapssn.hilbert.Operator` (so work that every rung shares,
like the composite step size, is done once, and escalated rungs of a
sparse ``H`` reuse an earlier rung's factor), and walks a trial ladder
``lambda = 2^j * Lambda_k`` (``j = 0, 1, ...``, exact in binary floating
point).  For every trial the regularised model subproblem is solved; a
non-computable step (indefinite system, failed inner loop) moves to the
next rung.  A computable candidate ``x_plus`` with certified composite
gradient ``F'(x_plus)`` is accepted iff both

    <F'(x_plus), x_k - x_plus>  >=  (alpha/lambda) ||F'(x_plus)||_*^2
    F(x_k) - F(x_plus)          >=  beta * lambda * ||x_plus - x_k||_R^2

hold (non-strict).  On acceptance the next iteration starts its ladder at
``Lambda_{k+1} = lambda_k / 2``, so the regularisation can decrease
geometrically on quadratic-like stretches while rejected rungs push it back
up.  Near a solution the active set settles and a sparse ``H(x_{k+1})``
often equals ``H(x_k)`` exactly (same format, shape, indices and values);
the iteration then keeps ``H(x_k)``'s Operator, whose cache carries the
kept rung factor over, certified for the lower rungs by a factor of ``H``
itself (see :mod:`leapssn.hilbert`).  The objective decrease in the second
test is ``Problem.decrease(x_k, x_plus)``, which takes psi's values from
the problem and prefers a difference-form computation of f's part: near
tight tolerances the subtraction of two O(1) objective values is pure
rounding noise while the true decrease still dominates the threshold.

Every run, this driver's and the Newton baselines', is opened by
:func:`start_run`, records each accepted iterate by :meth:`Trace.accept`
and reports its last recorded state (else its start) by
:meth:`Trace.result`.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from .hilbert import Operator
from .problem import Problem
from .subsolver import smooth_step, composite_step

CONVERGED = "converged"
OUTER_BUDGET = "outer_budget"
INNER_BUDGET = "inner_budget"
SOLVE_BUDGET = "solve_budget"
SUBPROBLEM_FAILURE = "subproblem_failure"

#: CLI / script exit codes per terminal status.
EXIT_CODES = {
    CONVERGED: 0,
    OUTER_BUDGET: 2,
    INNER_BUDGET: 2,
    SOLVE_BUDGET: 2,
    SUBPROBLEM_FAILURE: 3,
}

MAX_OUTER = 500     # outer iterations of every run, of any solver
MAX_TRIALS = 60     # ladder rungs per outer iteration
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# Trial factor of the convergence theory: a trial is certain to be accepted
# once lambda >= M * L (L the model-error constant), given
# beta <= (M - 1) / (2M) = 1/4.  It bounds beta and the audit's ceiling
# lambda_bar = 2 M 1.05 L, with L the problem's certified model_error_bound
# (every penalised quadratic) or else a sampled estimate (see verify); the
# ladder itself always doubles.
M = 2.0

TRACE_HEADER = "k,j_k,lambda_k,Lambda_k,F,grad_dual_norm,step_norm,cum_linear_solves"


@dataclass
class Record:
    """One accepted outer iteration."""
    k: int
    j: int
    lam: float          # accepted lambda_k = 2^j * Lambda_k
    Lam: float          # ladder base Lambda_k at the start of the iteration
    F: float            # F(x_{k+1})
    grad_dual_norm: float
    step_norm: float
    cum_solves: int


@dataclass
class Trace:
    """Run history: scalar records plus the iterates the audit needs."""
    x0: np.ndarray
    F0: float
    g0_norm: float
    config: dict
    records: list = field(default_factory=list)
    iterates: list = field(default_factory=list)   # x_{k+1} per record
    grads: list = field(default_factory=list)      # certified F'(x_{k+1})

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv())

    def csv(self) -> str:
        out = io.StringIO()
        out.write(TRACE_HEADER + "\n")
        for r in self.records:
            out.write(f"{r.k},{r.j},{repr(r.lam)},{repr(r.Lam)},{repr(r.F)},"
                      f"{repr(r.grad_dual_norm)},{repr(r.step_norm)},{r.cum_solves}\n")
        return out.getvalue()

    def accept(self, x, grad, **record):
        """Record an accepted iterate ``x`` with its certified gradient."""
        self.records.append(Record(**record))
        self.iterates.append(x.copy())
        self.grads.append(grad.copy())

    def result(self, status, solves) -> Result:
        """The run's outcome: its last recorded state, else its start."""
        if self.records:
            last = self.records[-1]
            x, F, gpn = self.iterates[-1], last.F, last.grad_dual_norm
        else:
            x, F, gpn = self.x0, self.F0, self.g0_norm
        return Result(x=x.copy(), status=status, F=F, grad_dual_norm=gpn,
                      iterations=len(self.records), solves=solves, trace=self)


@dataclass
class Result:
    x: np.ndarray
    status: str
    F: float
    grad_dual_norm: float
    iterations: int
    solves: int
    trace: Trace

    @property
    def converged(self):
        return self.status == CONVERGED


def blas_threads() -> dict:
    """The BLAS thread variables, None where unset."""
    return {v: os.environ.get(v) for v in BLAS_THREAD_VARS}


def start_run(problem, x0, grad_tol, max_solves, **config):
    """Open a run of any solver on ``problem`` from ``x0``.

    Returns the start point ``x``, ``f'(x)`` and an empty :class:`Trace`
    whose config holds the problem, the solver's own ``config`` keys, the
    tolerance, the solve budget and :func:`blas_threads`.  The trace's
    start stationarity is ``||f'(x0)||_*`` on a smooth problem, else the
    unit-step prox-gradient residual (a surrogate: convergence is only ever
    tested on certified gradients at accepted iterates).  Raises ValueError
    unless ``grad_tol > 0``, ``max_solves`` is None or at least 1 and F and
    f' are finite at the start point, where a solver could only fail.
    """
    if not grad_tol > 0:
        raise ValueError("grad_tol must be positive")
    if max_solves is not None and max_solves < 1:
        raise ValueError("max_solves must be at least 1")
    x = problem.start_point(x0)
    F = problem.value(x)
    g = np.asarray(problem.f_grad(x), dtype=float)
    if not (np.isfinite(F) and np.isfinite(g).all()):
        raise ValueError(f"F or f' is not finite at the start point "
                         f"(F = {F})")
    g0_norm = (problem.metric.dual_norm(g) if problem.smooth
               else float(np.linalg.norm(x - problem.prox(x - g, 1.0))))
    config = {"problem": problem.name, "dim": problem.dim, **config,
              "grad_tol": grad_tol, "max_solves": max_solves,
              "blas_threads": blas_threads()}
    return x, g, Trace(x0=x.copy(), F0=F, g0_norm=g0_norm, config=config)


def leap_ssn(problem: Problem, x0=None, *, grad_tol=1e-8, max_solves=None,
             alpha=None, beta=0.25, lambda0=None) -> Result:
    """Run the adaptive solver on ``problem`` from ``x0``.

    Returns a :class:`Result` of the last accepted iterate, or of the start
    point when no trial was accepted before the run stopped.  Convergence
    is declared when the certified gradient at an *accepted* iterate has dual
    norm at most ``grad_tol`` (the start point is never tested, so a trace is
    never empty on the converged path).  The run stops after ``max_solves``
    linear solves (None: no budget) or ``MAX_OUTER`` outer iterations.
    ``alpha`` and ``lambda0`` default to the problem's declarations, else
    to 0.5 and 1.  Raises ValueError unless ``grad_tol > 0``, the budget is
    None or at least 1, the constants meet the conditions of the
    convergence theory and F and f' are finite at the start point.
    """
    if lambda0 is None:
        lambda0 = problem.lambda0 if problem.lambda0 is not None else 1.0
    if alpha is None:
        alpha = problem.alpha if problem.alpha is not None else 0.5
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    if not (0.0 < beta <= (M - 1.0) / (2.0 * M)):
        raise ValueError(f"beta must lie in (0, (M-1)/(2M)] = (0, {(M-1)/(2*M)}], got {beta}")
    if not 0.0 < lambda0 < np.inf:
        raise ValueError(f"lambda0 must be positive and finite, got {lambda0}")

    x, g, trace = start_run(problem, x0, grad_tol, max_solves,
                            alpha=alpha, beta=beta, m=M, lambda0=lambda0)
    F, Lam = trace.F0, lambda0
    solves = 0
    status = OUTER_BUDGET

    H = None
    for k in range(MAX_OUTER):
        hess = problem.hess(x)
        if H is None or not H.stores(hess):
            H = None    # free the last H and its kept rung factor first
            H = Operator(hess)

        accepted = False
        computable_seen = False
        for j in range(MAX_TRIALS):
            if max_solves is not None and solves >= max_solves:
                status = SOLVE_BUDGET
                break
            lam = (2.0 ** j) * Lam
            if problem.smooth:
                sub = smooth_step(problem, x, g, H, lam)
            else:
                sub = composite_step(problem, x, g, H, lam)
            solves += 1
            if not sub.computable:
                continue
            computable_seen = True
            x_plus = sub.x_plus
            d = x_plus - x

            fg_plus = np.asarray(problem.f_grad(x_plus), dtype=float)
            g_plus = fg_plus + sub.psi_grad

            gpn2 = float(g_plus @ problem.metric.solve(g_plus))
            gpn = float(np.sqrt(max(0.0, gpn2)))
            dec = problem.decrease(x, x_plus)
            step2 = problem.metric.inner(d, d)

            cond1 = float(g_plus @ (-d)) >= (alpha / lam) * gpn2
            cond2 = dec >= beta * lam * step2
            if cond1 and cond2:
                accepted = True
                break

        if status == SOLVE_BUDGET:
            break
        if not accepted:
            status = INNER_BUDGET if computable_seen else SUBPROBLEM_FAILURE
            break

        x, g, F = x_plus, fg_plus, F - dec
        trace.accept(x, g_plus, k=k, j=j, lam=lam, Lam=Lam, F=F,
                     grad_dual_norm=gpn,
                     step_norm=float(np.sqrt(max(0.0, step2))),
                     cum_solves=solves)
        Lam = lam / 2.0
        if gpn <= grad_tol:
            status = CONVERGED
            break

    return trace.result(status, solves)
