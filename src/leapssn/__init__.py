"""Adaptive proximal Levenberg-Marquardt semismooth Newton solver.

Minimises composite objectives F = f + psi where f has a semismooth
gradient with a known generalized derivative and psi is convex with a
cheap prox.  The driver walks a doubling regularisation ladder per
iteration, certifies every trial step, and halves the ladder base after
each acceptance; unregularised full-step and Armijo-backtracking Newton
baselines share the same trace format for side-by-side sweeps.
"""

from .baselines import backtracking_newton, plain_newton
from .driver import (CONVERGED, EXIT_CODES, INNER_BUDGET, OUTER_BUDGET,
                     SOLVE_BUDGET, SUBPROBLEM_FAILURE, TRACE_HEADER, Record,
                     Result, Trace, leap_ssn)
from .hilbert import Metric, NumericalError, Operator, solve_posdef
from .problem import Problem
from .subsolver import SubproblemResult, composite_step, smooth_step
from .verify import (RateReport, assumption2_sample, audit_trace,
                     dm_condition_sample, grad_check, hess_symmetry_check,
                     manifold_check, sample_points, step_length_bound,
                     step_shift_bound, superlinear_check)

__version__ = "0.1.0"

__all__ = [
    "leap_ssn", "plain_newton", "backtracking_newton", "Problem", "Metric",
    "Operator", "NumericalError", "solve_posdef", "Result",
    "Trace", "Record", "SubproblemResult", "composite_step", "smooth_step",
    "RateReport", "assumption2_sample", "audit_trace", "dm_condition_sample",
    "grad_check", "hess_symmetry_check", "manifold_check", "sample_points",
    "step_length_bound", "step_shift_bound", "superlinear_check",
    "CONVERGED", "OUTER_BUDGET", "INNER_BUDGET", "SOLVE_BUDGET",
    "SUBPROBLEM_FAILURE", "EXIT_CODES", "TRACE_HEADER", "__version__",
]
