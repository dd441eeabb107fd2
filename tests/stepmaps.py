"""Step-map bounds for property tests: two a-priori inequalities the
regularised proximal step satisfies (step length vs subgradient norm,
and lambda-sensitivity), each evaluated as an (lhs, rhs) pair."""

import numpy as np

from leapssn import Problem, composite_step, smooth_step


def _step(problem: Problem, x, g, H, lam):
    """The driver's trial step at ``x`` for ``lam``, given f'(x) and H(x)."""
    step = smooth_step if problem.smooth else composite_step
    return step(problem, x, g, H, lam)


def _psi_subgradient_at(problem: Problem, x):
    """A member of the subdifferential of psi at x via a tiny prox step."""
    if problem.smooth:
        return np.zeros_like(x)
    t = 1e-12 * (1.0 + float(np.linalg.norm(x)))
    p = problem.prox(x, t)
    return (x - p) / t


def step_length_bound(problem: Problem, x, lam: float, mu: float = 0.0):
    """(lhs, rhs) for: step length <= subgradient dual norm / (lam + mu).

    ``mu`` is a lower curvature bound for the model (H >= mu R); pass 0
    when only positive semidefiniteness is known.  Returns None when the
    step is not computable.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.f_grad(x), dtype=float)
    sub = _step(problem, x, g, problem.hess(x), lam)
    if not sub.computable:
        return None
    lhs = problem.metric.norm(sub.x_plus - x)
    rhs = problem.metric.dual_norm(g + _psi_subgradient_at(problem, x)) / (lam + mu)
    return lhs, rhs


def step_shift_bound(problem: Problem, x, lam: float, lam2: float):
    """(lhs, rhs) for the step's sensitivity in the regulariser.

    For lam <= lam2: ||x+(lam) - x+(lam2)|| <= (lam2-lam)/lam2 * ||x - x+(lam)||.
    Returns None when either step is not computable.
    """
    if not lam <= lam2:
        raise ValueError("need lam <= lam2")
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.f_grad(x), dtype=float)
    # one H per lambda: a shared sparse H would send lam2's rung to PCG
    s1 = _step(problem, x, g, problem.hess(x), lam)
    s2 = _step(problem, x, g, problem.hess(x), lam2)
    if not (s1.computable and s2.computable):
        return None
    lhs = problem.metric.norm(s1.x_plus - s2.x_plus)
    rhs = (lam2 - lam) / lam2 * problem.metric.norm(x - s1.x_plus)
    return lhs, rhs
