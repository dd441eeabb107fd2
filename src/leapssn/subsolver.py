"""Trial-step subproblems.

Each outer trial minimises the regularised local model

    m(y) = f(x) + <f'(x), y-x> + 1/2 <H(x)(y-x), y-x>
           + lambda/2 ||y-x||_R^2 + psi(y).

For smooth problems (``psi == 0``) the minimiser solves the SPD system
``(H + lambda R) d = -f'(x)`` directly; for composite problems the model is
minimised by a monotone accelerated proximal-gradient loop with adaptive
restart.  That loop evaluates each candidate's model once, value and
gradient from one product with ``H``; the momentum point's gradient follows
from two of those by linearity.  Once its prox steps have left the same
coordinates fixed for two iterations, the loop also tries one Newton step
on the coordinates left free (the prox has identified the active manifold:
Lewis, *Active sets, nonsmoothness, and sensitivity*, SIAM J. Optim. 2002;
Bareilles, Iutzeler and Malick, Math. Program. 2023).  On a separable
polyhedral ``psi`` (l1 with a free intercept, say) ``psi`` is affine on
the identified piece, so that step is the piece's exact minimiser; on any
other ``psi`` it is a candidate that the monotone safeguard admits or
refuses.  Either way the loop returns the prox step whose fixed-point
residual passed its test, so the prox fixed-point identity hands back an
exact subgradient of ``psi`` at the returned point.  Both steps return that
subgradient (zeros on a smooth problem), so the driver scores every
candidate the same way.

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
_EPS = np.finfo(float).eps


@dataclass
class SubproblemResult:
    x_plus: Optional[np.ndarray]             # None when not computable
    psi_grad: Optional[np.ndarray] = None    # exact subgradient of psi at x_plus
    diagnostics: dict = field(default_factory=dict)

    @property
    def computable(self) -> bool:
        return self.x_plus is not None


def smooth_step(problem: Problem, x, grad, H, lam) -> SubproblemResult:
    """Minimise the model for a smooth problem: one certified SPD solve.
    The subgradient of ``psi == 0`` is zero."""
    if not problem.smooth:
        raise ValueError("smooth_step requires psi == 0")
    H = Operator.of(H)
    d = solve_posdef(H.shift(lam, problem.metric), -grad)
    if d is None:
        return SubproblemResult(None)
    return SubproblemResult(x + d, psi_grad=np.zeros_like(d))


def _reduced_solve(A, free, rhs):
    """Certified solve of ``A_FF d = rhs``, the principal block on the
    coordinates ``free`` (F) of the rung system ``A = H + lam R``, or
    ``None`` when it cannot be certified or F is empty (no pivots)."""
    if free.size == 0:
        return None
    return solve_posdef(A.restrict(free), rhs)


def composite_step(problem: Problem, x, grad, H, lam) -> SubproblemResult:
    """Minimise the composite model with a monotone accelerated prox loop.

    Termination is by the prox fixed-point residual ``||y - p|| / t`` of
    ``p = prox(v, t)``, ``v = y - t * g(y)``; the returned point is that
    ``p``, so ``(v - p)/t`` is an exact element of ``partial psi(p)``.
    The test never demands less than the rounding floor ``4 eps ||y|| / t``
    at the iterate, so a minimiser far larger than ``x`` certifies too.
    The step is ``t = 1/(1.1 ||H|| + lambda ||R||)``, ``R`` the problem's
    metric.  Each candidate's model value and gradient come from one product
    with ``H`` and one with ``R``, and the loop carries ``y``'s gradient
    into the restart, the residual and the certificate.  The smooth gradient
    ``g(y) = f'(x) + H (y - x) + lambda R (y - x)`` is affine in ``y``, so
    the momentum point ``z = y+ + c (y+ - y)``, ``c = (theta - 1) /
    theta+``, gets ``g(z) = (1 + c) g(y+) - c g(y)`` from the two
    gradients the loop holds, and ``z = y+``, ``g(z) = g(y+)`` as they are
    when ``c == 0`` (the first iteration and after every restart).  The
    start ``y = x`` costs no product (its model is ``psi(x)``, ``f'(x)``),
    and each candidate one of each: a step makes ``it + r`` of each over
    ``it`` iterations and ``r`` restarts, plus one per Newton candidate.

    The momentum restarts in two ways (O'Donoghue and Candes, *Adaptive
    restart for accelerated gradient schemes*, Found. Comput. Math. 2015).
    A candidate whose model value rises by more than rounding noise is
    replaced by the prox step from the best point, ``y``, which costs one
    prox and one product.  Otherwise, a gradient restart resets ``theta``
    to 1 when the step just taken points against the prox-gradient
    mapping at the momentum point, ``(z - y+) . (y+ - y) > 0``: one dot
    product, and no prox, psi or ``H`` evaluation.  It is tested only
    when ``theta > 1`` and so never after a function-value restart; on
    the l1 SVM it halves the inner iterations.

    The Newton candidate finishes a rung on the manifold the prox has
    identified.  Its fixed set Z holds the coordinates where the accepted
    candidate equals the previous iterate bit for bit (l1 zeros that stay
    zero, say).  When neither the residual test nor a dead-end exit has
    ended an iteration, Z is the same as in the iteration before, and
    this Z has not been tried in this rung, the loop solves
    ``(H + lambda R)_FF d_F = -(g(y) + s)_F`` on the free coordinates F,
    with ``d_Z = 0`` and ``s = (v - p) / t`` the subgradient the residual's
    prox has just certified: the block on F of the rung system that
    :meth:`Operator.shift` forms, as for :func:`smooth_step`, whose solve
    :func:`hilbert.solve_posdef` certifies.  An all-fixed Z (empty F)
    or a refused solve skips the candidate.  ``y + d`` is evaluated once and
    taken as the new ``y``, with ``theta = 1`` and ``z = y``, when its model
    value is at most ``m_best`` plus the safeguard's dead band; the residual
    test then runs again at that ``y``.  (A candidate that meets an indefinite
    direction ends the step, as any other does.)  On a separable polyhedral
    ``psi`` (l1 with a free intercept, ``|x_0|``) ``psi`` is affine on the
    identified piece, where its subgradient is ``s``, so ``y + d`` is that
    piece's exact minimiser; on any other ``psi`` the safeguard admits or
    refuses it.
    The returned point is still the residual's own prox, so its
    subgradient stays exact.  A step makes ``it + r + n`` products, ``it +
    r + n + 1`` psi evaluations and ``2 it + r + a`` prox calls when ``n``
    Newton candidates are evaluated and ``a`` of them taken.  Its reduced
    solves are part of the step, which counts as one trial solve in the
    driver's accounting whatever the inner loop did.  Passing ``H`` as an
    :class:`Operator` shares its cached step-size estimate across the
    rungs of one outer iteration.

    A non-computable result says why in ``diagnostics["stop"]``, next to
    the true ``inner_iters``, and is returned at the line that decides
    it: ``"budget"`` after ``INNER_MAXIT``
    iterations, ``"indefinite"`` as soon as the model meets a direction
    ``d = y - x`` with ``<H d, d> + lambda <d, R d> <= 0 < <d, R d>`` (the
    system is not positive definite: PCG's refusal at ``<Ap, p> <= 0``),
    or one of two exits taken as soon as the loop provably cannot
    converge, where running on would only have ended the same way:

    * ``"stalled"``: the restart from the best point is rejected too, so
      ``y``, ``g(y)`` and ``m_best`` stay put, ``theta`` restarts from 1 to
      the same value, and ``c == 0`` makes ``z`` and ``g(z)`` exactly
      ``y`` and ``g(y)``.  That state is a fixed point: the next
      candidate ``prox(y - t g(y), t)`` is the restart candidate just
      rejected, and every later iteration repeats the same arithmetic on
      the same values, is rejected the same way and gets the residual
      that has just failed.  The gradient restart does not disturb this:
      it needs ``theta > 1``, and a stalled iteration has just set
      ``theta = 1``.  Nor does the Newton candidate: a stalled iteration
      leaves every coordinate fixed, so no coordinate is free to solve for.
    * ``"nonfinite"``: ``y`` holds a NaN or an infinity.  Then so does
      ``g(y)`` at that entry: its ``lambda R (y - x)`` term is not finite
      there (``R_ii > 0``), and a sum with a non-finite term is not finite.
      So do ``z``, ``g(z)`` and the prox input: each is such a sum, with a
      nonzero multiple of those entries, or is the entry itself when ``c == 0``
      (after a gradient restart too: a NaN dot product never resets).
      A prox that keeps a NaN entry non-finite (soft-thresholding and the
      identity do) makes every later candidate, and so every later
      residual, non-finite, and ``res <= threshold`` never holds again.
      A Newton candidate keeps those entries too: it does not move a
      fixed one, and a free one makes its solve's right-hand side
      non-finite, which the solve's check refuses.
      ``y`` is scanned only once the residual is not finite, so the usual
      path pays nothing.
    """
    prox = problem.prox if not problem.smooth else (lambda v, t: v)
    H, R = Operator.of(H), problem.metric
    t = 1.0 / (1.1 * H.norm_estimate() + lam * R.norm_estimate())
    indefinite = False

    def model(y):
        """The model's value at ``y`` and its smooth part's gradient there,
        from one product with ``H`` and one with ``R``."""
        nonlocal indefinite
        d = y - x
        Hd, Rd = H.apply(d), R.apply(d)
        q, dd = float(d @ Hd), float(d @ Rd)
        if q + lam * dd <= 0.0 < dd:
            indefinite = True
        value = float(grad @ d) + 0.5 * q + 0.5 * lam * dd + problem.psi(y)
        return value, grad + Hd + lam * Rd

    def certified(res, y):
        """The residual test, never stricter than the rounding floor at the
        iterate ``y``, which exceeds the base point's when ``y`` is far
        larger than ``x``."""
        return res <= max(threshold, 4.0 * _EPS * float(np.linalg.norm(y)) / t)

    def refused(stop):
        """The non-computable result of the exit ``stop``."""
        return SubproblemResult(None, diagnostics={"inner_iters": it + 1,
                                                   "stop": stop})

    y = z = x             # z: momentum point; x, y, z are never written to
    m_best, g_y = problem.psi(x), grad   # the model at y = x: no product
    g_z = g_y             # the model gradient is affine: z's is carried
    theta = 1.0
    res_scale = max(1.0, float(np.linalg.norm(x)))
    threshold = INNER_TOL * res_scale
    fixed_before = None   # the fixed set Z of the iteration before
    tried = set()         # the fixed sets whose Newton step has been tried
    for it in range(INNER_MAXIT):
        cand = prox(z - t * g_z, t)
        m_cand, g_cand = model(cand)
        if it == 0:
            # near outer convergence the absolute threshold can exceed the
            # step itself; demand a fixed reduction of the base point's own
            # prox residual too (floored at attainable rounding accuracy)
            res0 = float(np.linalg.norm(x - cand)) / t
            floor = 4.0 * _EPS * res_scale / t
            threshold = min(threshold, max(INNER_REL * res0, floor))
        # monotone safeguard with a rounding-noise dead band: near the model
        # optimum measured values differ by ulps in either direction, and a
        # hard comparison would reject every candidate and freeze the loop
        tau = 16.0 * _EPS * max(1.0, abs(m_best))
        stalled = False
        if m_cand > m_best + tau:  # material increase: restart from best point
            theta = 1.0
            cand = prox(y - t * g_y, t)
            m_cand, g_cand = model(cand)
            if m_cand > m_best + tau:   # no progress even from the best point
                cand, m_cand, g_cand = y, m_best, g_y
                stalled = True
        # gradient restart: drop the momentum when the step just taken
        # points against the prox-gradient mapping at z (a function-value
        # restart, stalled or not, has set theta = 1 already)
        if theta > 1.0 and float((z - cand) @ (cand - y)) > 0.0:
            theta = 1.0
        if indefinite:
            return refused("indefinite")
        fixed = cand == y
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        c = (theta - 1.0) / theta_next
        if c == 0.0:        # theta == 1: no momentum, and no 0 * inf
            z, g_z = cand, g_cand
        else:
            z = cand + c * (cand - y)
            g_z = (1.0 + c) * g_cand - c * g_y
        y, g_y, m_best, theta = cand, g_cand, min(m_best, m_cand), theta_next
        # prox fixed-point residual at y decides termination
        v = y - t * g_y
        p = prox(v, t)
        res = float(np.linalg.norm(y - p)) / t
        if certified(res, y):
            break
        # the two dead ends proved in the docstring
        if stalled:
            return refused("stalled")
        if not np.isfinite(res) and not np.isfinite(y).all():
            return refused("nonfinite")
        # the Newton candidate on the coordinates the prox left free
        key = fixed.tobytes()
        if (fixed_before is not None and np.array_equal(fixed, fixed_before)
                and key not in tried):
            tried.add(key)
            free = np.flatnonzero(~fixed)
            step = _reduced_solve(H.shift(lam, R), free,
                                  -(g_y + (v - p) / t)[free])
            if step is not None:
                newton = y.copy()
                newton[free] += step
                m_newton, g_newton = model(newton)
                if indefinite:
                    return refused("indefinite")
                if m_newton <= m_best + tau:
                    y, g_y, z, g_z = newton, g_newton, newton, g_newton
                    m_best, theta = min(m_best, m_newton), 1.0
                    v = y - t * g_y
                    p = prox(v, t)
                    res = float(np.linalg.norm(y - p)) / t
                    if certified(res, y):
                        break
        fixed_before = fixed
    else:
        return refused("budget")

    # the prox whose residual passed is the step: its fixed-point identity
    # hands back an exact subgradient of psi at the returned point
    return SubproblemResult(p, psi_grad=(v - p) / t,
                            diagnostics={"inner_iters": it + 1})
