"""Trial-step subproblems.

Each outer trial minimises the regularised local model

    m(y) = f(x) + <f'(x), y-x> + 1/2 <H(x)(y-x), y-x>
           + lambda/2 ||y-x||_R^2 + psi(y).

For smooth problems (``psi == 0``) the minimiser solves the SPD system
``(H + lambda R) d = -f'(x)`` directly; for composite problems the model is
minimised by a monotone accelerated proximal-gradient loop whose final
iterate is produced by one extra prox step, so that the prox fixed-point
identity hands back an exact subgradient of ``psi`` at the returned point.

A step is *non-computable* when the system is not positive definite (the
model has no minimiser for this lambda) or the inner iteration fails to
certify; the driver reacts by doubling lambda.  The prox loop gives up as
soon as it provably cannot certify -- its monotone safeguard has reached a
fixed point, or its iterate has gone non-finite -- rather than running out
``INNER_MAXIT``; :func:`composite_step` says why each exit is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hilbert import Operator, solve_posdef
from .problem import Problem

INNER_TOL = 1e-10
INNER_REL = 1e-4     # residual reduction relative to the base point's own
INNER_MAXIT = 10000


@dataclass
class SubproblemResult:
    x_plus: Optional[np.ndarray]             # None when not computable
    psi_grad: Optional[np.ndarray] = None    # exact subgradient of psi at x_plus
    psi_value: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def computable(self) -> bool:
        return self.x_plus is not None


def smooth_step(problem: Problem, x, grad, H, lam) -> SubproblemResult:
    """Minimise the model for a smooth problem: one certified SPD solve."""
    if not problem.smooth:
        raise ValueError("smooth_step requires psi == 0")
    H = Operator.of(H)
    d = solve_posdef(H.shift(lam, problem.metric), -grad)
    return SubproblemResult(None if d is None else x + d)


def composite_step(problem: Problem, x, grad, H, lam) -> SubproblemResult:
    """Minimise the composite model with a monotone accelerated prox loop.

    Termination is by the prox fixed-point residual; the returned point is
    always the output of a prox step from the last smooth iterate, so
    ``(v - x_plus)/t`` is an exact element of ``partial psi(x_plus)``.
    Counts as one trial solve in the driver's accounting.  Passing ``H``
    as an :class:`Operator` shares its cached step-size estimate across
    the rungs of one outer iteration.

    A non-computable result says why in ``diagnostics["stop"]``, next to
    the true ``inner_iters``: ``"budget"`` after ``INNER_MAXIT``
    iterations, ``"indefinite"`` as soon as the model meets a direction
    ``d = y - x`` with ``<H d, d> + lambda <d, d> <= 0 < <d, d>`` (the
    system is not positive definite: PCG's refusal at ``<Ap, p> <= 0``),
    or one of two exits taken as soon as the loop provably cannot
    converge, where running on would only have ended the same way:

    * ``"stalled"``: the restart from the best point is rejected too, so
      ``y`` and ``m_best`` stay put, ``z = y + 0 * (y - y)`` equals ``y``
      (up to the sign of a zero, which no comparison sees) and ``theta``
      restarts from 1 to the same value.  That state is a fixed point:
      every later iteration repeats the same arithmetic on the same values,
      is rejected the same way and gets the residual that has just failed.
    * ``"nonfinite"``: ``y`` holds a NaN or an infinity.  Then so do ``z``,
      the model gradient and the prox input at that entry; a prox that
      keeps a NaN entry non-finite (soft-thresholding and the identity
      do) makes every later candidate, and so every later residual,
      non-finite, and ``res <= threshold`` never holds again.  ``y`` is
      scanned only once the residual is not finite, so the usual path
      pays nothing.
    """
    prox = problem.prox if not problem.smooth else (lambda v, t: v)
    H = Operator.of(H)
    matvec = H.apply
    t = 1.0 / (1.1 * H.norm_estimate() + lam)

    def model_grad(y):
        d = y - x
        return grad + matvec(d) + lam * d

    indefinite = False

    def model_smooth(y):
        nonlocal indefinite
        d = y - x
        q, dd = float(d @ matvec(d)), float(d @ d)
        if q + lam * dd <= 0.0 < dd:
            indefinite = True
        return float(grad @ d) + 0.5 * q + 0.5 * lam * dd

    def model_total(y):
        return model_smooth(y) + problem.psi(y)

    y = x.copy()
    z = x.copy()          # momentum point
    m_best = model_total(y)
    theta = 1.0
    res_scale = max(1.0, float(np.linalg.norm(x)))
    threshold = INNER_TOL * res_scale
    stop = None
    for it in range(INNER_MAXIT):
        g_z = model_grad(z)
        cand = prox(z - t * g_z, t)
        m_cand = model_total(cand)
        if it == 0:
            # near outer convergence the absolute threshold can exceed the
            # step itself; demand a fixed reduction of the base point's own
            # prox residual too (floored at attainable rounding accuracy)
            res0 = float(np.linalg.norm(x - cand)) / t
            floor = 4.0 * np.finfo(float).eps * res_scale / t
            threshold = min(threshold, max(INNER_REL * res0, floor))
        # monotone safeguard with a rounding-noise dead band: near the model
        # optimum measured values differ by ulps in either direction, and a
        # hard comparison would reject every candidate and freeze the loop
        tau = 16.0 * np.finfo(float).eps * max(1.0, abs(m_best))
        stalled = False
        if m_cand > m_best + tau:  # material increase: restart from best point
            z = y.copy()
            theta = 1.0
            g_z = model_grad(z)
            cand = prox(z - t * g_z, t)
            m_cand = model_total(cand)
            if m_cand > m_best + tau:   # no progress even from the best point
                cand, m_cand = y, m_best
                stalled = True
        if indefinite:
            stop = "indefinite"
            break
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        z = cand + ((theta - 1.0) / theta_next) * (cand - y)
        y, m_best, theta = cand, min(m_best, m_cand), theta_next
        # prox fixed-point residual at y decides termination
        p = prox(y - t * model_grad(y), t)
        res = float(np.linalg.norm(y - p)) / t
        if res <= threshold:
            break
        # the two dead ends proved in the docstring
        if stalled:
            stop = "stalled"
            break
        if not np.isfinite(res) and not np.isfinite(y).all():
            stop = "nonfinite"
            break
    else:
        stop = "budget"
    if stop is not None:
        return SubproblemResult(None, diagnostics={"inner_iters": it + 1,
                                                   "stop": stop})

    # certification: one clean prox step from y, so the fixed-point identity
    # hands back an exact subgradient of psi at the returned point
    g_y = model_grad(y)
    v = y - t * g_y
    x_plus = prox(v, t)
    psi_grad = (v - x_plus) / t
    psi_val = problem.psi(x_plus)
    return SubproblemResult(x_plus, psi_grad=psi_grad, psi_value=psi_val,
                            diagnostics={"inner_iters": it + 1})
