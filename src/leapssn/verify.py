"""Theory-audit harness for solver traces and problem definitions.

Two layers:

* derivative/structure oracles — ``grad_check`` (finite differences),
  ``hess_symmetry_check``, and ``assumption2_sample``, which gives the
  model-error constant L of the regularised Newton model, the supremum of
  ``||f'(y) - f'(x) - H(x)(y-x)||_* / ||y-x||``: the problem's certified
  ``model_error_bound`` when it declares one (every penalised quadratic
  and ``rank_deficient_ls`` do), else the largest ratio over sampled base
  points x and their random and short-range partners y;

* trace audits — ``audit_trace`` re-derives every promise the adaptive
  driver makes (monotone objective, both acceptance inequalities, the
  recorded decreases against F itself, the regulariser ceiling, the
  backtracking-count identity, the model error of every iterate pair
  against a certified L, and the global rate envelopes that apply given
  the problem's declared constants),
  ``superlinear_check`` and ``dm_condition_sample`` detect the fast
  local regime, ``manifold_check`` the finite identification of the
  nonsmooth manifold.

Each point is evaluated once, and all evaluation takes one path
(``_columns``): a list of columns goes through a block hook
(``f_values``, ``hess_apply``, or ``Metric.solve`` for the dual norms
``||.||_*``) in dim x k blocks of at most ``_width`` columns, each column
with its own base point, or, when the problem lacks the hook, through
``f_value`` or ``hess(x) @ d`` column by column.  ``_width`` is
``GRAD_DIRECTIONS`` with the ``f_values`` hook (dense rows), else
``BLOCK_DIRECTIONS``, which bounds what a large mesh holds.  f' is
always the per-point ``f_grad``.  The model errors of
``assumption2_sample``'s pairs and of ``audit_trace``'s iterate pairs
come in blocks of at most ``_width`` pairs, drawn as needed; each block's
points, directions and dual norms are such lists, and so are
``grad_check``'s shifted points x + step d and x - step d of a point.
``audit_trace`` evaluates f' once per iterate, for its gradient checks
and its iterate pairs, since its cache check compares with the solver's
stored gradients bit for bit, and f once per iterate, through
``_values``, for its objective check.  Sample sizes and seeds are fixed
module constants, so an audit of a given trace always repeats.

Every envelope check is one-sided: the harness asserts trace <= bound,
never tightness.  A sampled L may undershoot the truth (a certified one
never does), so all theory bounds inflate L by 5% and carry a 1e-8
relative arithmetic slack; checks whose required constants are missing
are reported as not-applicable (None), never silently passed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .driver import Trace
from .hilbert import Operator
from .problem import Problem
from .subsolver import composite_step, smooth_step
from .suite.rng import SplitMix64

SLACK = 1e-8        # relative arithmetic slack on audited inequalities
L_INFLATION = 1.05  # a sampled model-error constant may undershoot the truth
GRAD_STEP = 1e-6    # central-difference base step
MAX_COORD_DIM = 200  # coordinate-wise differences up to here, directions beyond
GRAD_DIRECTIONS = 50  # random directions beyond, and columns per block
BLOCK_DIRECTIONS = 8  # columns per block without f_values
HOOK_WEIGHT = 1e4   # scale of a block hook's mismatch in grad_check
BOX_RADIUS = 2.0    # half-width of the sampling box when none is declared
SAMPLE_SEED = 0x5EEDB0C5
SYMMETRY_PROBES = 5  # probe pairs per point in hess_symmetry_check
SYMMETRY_SEED = 0x51D35EED
MODEL_ERROR_BASES = 40  # box base points of assumption2_sample
MODEL_ERROR_SEED = 0xA55E55
SUPERLINEAR_WINDOW = 5  # trace tail read by superlinear_check
DM_COUNT = 8        # trace tail read by dm_condition_sample


def _sample_bounds(problem: Problem):
    if problem.sample_box is not None:
        lo, hi = problem.sample_box
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo = np.full(problem.dim, -BOX_RADIUS)
    return lo, -lo


def _grad(problem: Problem, x) -> np.ndarray:
    return np.asarray(problem.f_grad(x), dtype=float)


def sample_points(problem: Problem, count: int) -> list:
    """Deterministic sample points inside the problem's declared box."""
    rng = SplitMix64(SAMPLE_SEED)
    lo, hi = _sample_bounds(problem)
    return [lo + (hi - lo) * rng.uniforms(problem.dim) for _ in range(count)]


def _width(problem: Problem) -> int:
    """Columns per block of the audit: ``GRAD_DIRECTIONS`` with the
    ``f_values`` hook (dense rows), else ``BLOCK_DIRECTIONS``, which
    bounds what a large mesh holds."""
    return GRAD_DIRECTIONS if problem.f_values is not None else BLOCK_DIRECTIONS


def _columns(problem: Problem, hook, per_column, *cols) -> list:
    """``per_column(*c)`` for each column c of the equal-length vector
    lists ``cols``: one ``hook`` call per dim x k block of at most
    ``_width`` columns of each list, its result's columns as contiguous
    vectors (or as scalars), when the problem has the hook, else one
    ``per_column`` call per column."""
    if hook is None:
        return [per_column(*c) for c in zip(*cols)]
    width = _width(problem)
    return [r for j in range(0, len(cols[0]), width)
            for r in np.asarray(hook(*(np.column_stack(c[j:j + width])
                                       for c in cols)), dtype=float).T.copy()]


def _values(problem: Problem, pts) -> list:
    """f at each point of ``pts``, through ``f_values``."""
    return [float(v) for v in
            _columns(problem, problem.f_values, problem.f_value, pts)]


def _hess_products(problem: Problem, bases, dirs) -> list:
    """H(x) d for each base point x of ``bases`` and direction d of
    ``dirs``, through ``hess_apply`` whatever the columns' base points,
    else by forming ``hess(x)`` for each pair."""
    return _columns(problem, problem.hess_apply,
                    lambda x, d: problem.hess(x) @ d, bases, dirs)


def _squared_dual_norms(problem: Problem, vecs) -> list:
    """``<g, R^{-1} g>`` for each vector g of ``vecs``, through
    ``Metric.solve``."""
    solve = problem.metric.solve
    return [float(g @ s)
            for g, s in zip(vecs, _columns(problem, solve, solve, vecs))]


def _block_hook_error(problem: Problem, points) -> float:
    """Largest relative mismatch of the ``f_values`` hook against
    per-point ``f_value`` at ``points``, times ``HOOK_WEIGHT`` (0 without
    the hook)."""
    if problem.f_values is None:
        return 0.0
    worst = 0.0
    for x, w in zip(points, _values(problem, points)):
        v = float(problem.f_value(x))
        worst = max(worst, abs(w - v) / max(1.0, abs(v)))
    return HOOK_WEIGHT * worst


def grad_check(problem: Problem, points) -> float:
    """Max relative error of f' against central finite differences.

    Coordinate-wise differences for dim <= 200; for larger problems 50
    seeded random directions (a full coordinate sweep would straddle
    penalty kinks often enough to pollute the measurement).  A base
    point's shifted points x + step d and x - step d are evaluated as two
    blocks when the problem has the ``f_values`` hook.

    The ``f_values`` hook is compared with per-point ``f_value`` at
    ``points``, and its largest relative mismatch, times ``HOOK_WEIGHT``,
    is folded in.  The hook re-evaluates the same f, so it agrees to
    rounding (~1e-15), which adds ~1e-11, below the differences' own
    error; a hook off by 1e-9 or more reaches the 1e-5 tolerance that
    ``leapssn verify`` holds this check to.
    """
    points = [np.asarray(x, dtype=float) for x in points]
    coords = problem.dim <= MAX_COORD_DIM
    if coords:
        dirs = list(np.eye(problem.dim))
    else:
        rng = SplitMix64(0xD1FF5EED)
        dirs = []
        for _ in range(GRAD_DIRECTIONS):
            d = rng.normals(problem.dim)
            d /= np.linalg.norm(d)
            dirs.append(d)
    worst = 0.0
    for x in points:
        g = _grad(problem, x)
        step = GRAD_STEP * (1.0 + float(np.linalg.norm(x)))
        f_plus = _values(problem, [x + step * d for d in dirs])
        f_minus = _values(problem, [x - step * d for d in dirs])
        if coords:
            slopes = g
            scales = [max(1.0, abs(gi)) for gi in g]
        else:
            slopes = [float(g @ d) for d in dirs]
            scales = [max(1.0, float(np.linalg.norm(g)))] * len(dirs)
        for fp, fm, slope, scale in zip(f_plus, f_minus, slopes, scales):
            fd = (fp - fm) / (2 * step)
            worst = max(worst, abs(fd - slope) / scale)
    return max(worst, _block_hook_error(problem, points))


def hess_symmetry_check(problem: Problem, points) -> float:
    """Max relative asymmetry |<Hu,v> - <Hv,u>| over random probe pairs.

    Every point's probes u also go through ``_hess_products``, in blocks
    that span the points, each column with its own base point, and each
    point's relative mismatch ||H U - H(x) U|| / max(1, ||H(x) U||) on its
    block U of probes is folded in, so a ``hess_apply`` hook that
    disagrees with ``hess``, or applies one column's base point to
    another's, fails the check (without the hook the mismatch is 0)."""
    rng = SplitMix64(SYMMETRY_SEED)
    worst = 0.0
    bases, us, Hus = [], [], []     # x, u and H(x) u of each probe
    for x in points:
        x = np.asarray(x, dtype=float)
        H = problem.hess(x)
        for _ in range(SYMMETRY_PROBES):
            u = rng.normals(problem.dim)
            v = rng.normals(problem.dim)
            Hu = H @ u
            a = float(Hu @ v)
            b = float((H @ v) @ u)
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
            bases.append(x)
            us.append(u)
            Hus.append(Hu)
    applied = _hess_products(problem, bases, us)
    for j in range(0, len(Hus), SYMMETRY_PROBES):
        HU = np.column_stack(Hus[j:j + SYMMETRY_PROBES])
        gap = float(np.linalg.norm(
            np.column_stack(applied[j:j + SYMMETRY_PROBES]) - HU))
        worst = max(worst, gap / max(1.0, float(np.linalg.norm(HU))))
    return worst


def _model_errors(problem: Problem, pairs, rounding=False) -> list:
    """The model-error ratio ``||f'(y) - f'(x) - H(x)(y - x)||_* /
    ||y - x||`` of each of one block of ``pairs`` (x, y, f'(x), f'(y)), as
    ``(ratio, allowance)``, or None where the step or the ratio is not
    finite or the step is below 1e-14.  ``allowance`` is 0 unless
    ``rounding``; then it is the rounding allowance of the ratio.

    The allowance sizes the rounding of f' and H(x) d, which a ratio
    divides by the step.  On a penalised quadratic (the problems with a
    certified L) f'(z) = H(z) z + b with b constant on z's piece, so
    evaluating f'(z) sums vectors of size up to ``||H z|| + ||b|| <= 2 ||H
    z|| + ||f'(z)||``, however small f'(z) itself is near a solution; on
    ``quadratic``, whose model error is 0, the rounding of f' alone gave
    converged-tail ratios up to 1.4e-7.  The allowance is ``dim * eps``
    times the sum of those sizes at x and y and of ``||H(x) d||`` (2-norms,
    with H(x) standing in for H(y) and ``H(x) y = H(x) x + H(x) d``),
    which is the rounding of sums of up to dim terms of these sizes, taken
    to the dual norm by ``1 / sqrt(mu)`` for the metric's certified ``mu <=
    lambda_min(R)``, and over ``||y - x||``.  The products H(x) x go
    through the block's ``_hess_products`` call with the H(x) d.
    """
    kept = []
    for j, (x, y, g_x, g_y) in enumerate(pairs):
        d = y - x
        nd = problem.metric.norm(d)
        if np.isfinite(nd) and nd > 1e-14:
            kept.append((j, x, d, nd, g_y - g_x))
    bases = [k[1] for k in kept]
    Hs = _hess_products(problem, bases * (2 if rounding else 1),
                        [k[2] for k in kept] + (bases if rounding else []))
    errs = _squared_dual_norms(problem,
                               [k[4] - Hd for k, Hd in zip(kept, Hs)])
    scale = 0.0
    if rounding:
        scale = (problem.dim * np.finfo(float).eps
                 / math.sqrt(problem.metric.lambda_min_bound()))
    out = [None] * len(pairs)
    for i, ((j, _, _, nd, _), e2) in enumerate(zip(kept, errs)):
        r = math.sqrt(max(0.0, e2)) / nd
        if not np.isfinite(r):
            continue
        allowance = 0.0
        if rounding:
            _, _, g_x, g_y = pairs[j]
            Hd, Hx = Hs[i], Hs[len(kept) + i]
            allowance = scale * (
                float(np.linalg.norm(g_x)) + float(np.linalg.norm(g_y))
                + float(np.linalg.norm(Hd))
                + 2.0 * float(np.linalg.norm(Hx))
                + 2.0 * float(np.linalg.norm(Hx + Hd))) / nd
        out[j] = (r, allowance)
    return out


def _model_error_blocks(problem: Problem, pairs):
    """The blocks ``_model_errors`` takes ``pairs`` in: at most ``_width``
    pairs each, drawn as needed, so that a large problem holds a bounded
    block of points and gradients at a time."""
    pairs, width = iter(pairs), _width(problem)
    while block := list(itertools.islice(pairs, width)):
        yield block


def assumption2_sample(problem: Problem) -> float:
    """The model-error constant L: the problem's ``model_error_bound``,
    without sampling, when it declares one; else the largest ratio over
    sampled base points and their partners.

    Each box base point x gets a box-scale and a short-range partner y
    inside the sampling box, drawn in that order, and f'(x) is taken once
    for its two pairs (x, y).  A sample can only undershoot the supremum
    L.
    """
    if problem.model_error_bound is not None:
        return float(problem.model_error_bound(problem.metric))
    rng = SplitMix64(MODEL_ERROR_SEED)
    lo, hi = _sample_bounds(problem)
    span = hi - lo

    def pairs():
        for _ in range(MODEL_ERROR_BASES):
            x = lo + span * rng.uniforms(problem.dim)
            g_x = _grad(problem, x)
            for y in (lo + span * rng.uniforms(problem.dim),
                      x + 1e-3 * span * (rng.uniforms(problem.dim) - 0.5)):
                yield x, y, g_x, _grad(problem, y)

    return max([0.0] + [e[0] for block in _model_error_blocks(problem, pairs())
                        for e in _model_errors(problem, block) if e])


#: The violation names each verdict flag of a :class:`RateReport` owns: a
#: flag is False exactly when one of its names was recorded.
_VERDICT_CHECKS = {
    "monotone_ok": ("monotone_F",),
    "acceptance_ok": ("acceptance_gradient", "acceptance_decrease",
                      "objective_cache", "gradient_cache", "psi_subgradient"),
    "lambda_bound_ok": ("lambda_bound", "model_error_bound"),
    "step_count_ok": ("step_count",),
    "step_length_ok": ("step_length",),
    "sublinear_envelope_ok": ("sublinear_envelope",),
    "pl_linear_envelope_ok": ("pl_envelope",),
}


@dataclass
class RateReport:
    """Outcome of a full trace audit.

    Booleans are per-check verdicts; ``None`` marks a check whose
    required declarations (positive semidefinite H, solution-set
    projector, PL modulus) the problem does not supply — not-applicable is
    reported, never silently passed.  ``L_hat`` is the model-error constant
    the audit used and ``L_source`` where it came from: ``"certified"``,
    the problem's ``model_error_bound``, or ``"sampled"``, the ``L_hat``
    argument folded with the run's iterate pairs.  ``violations`` holds
    one (k, name, lhs, rhs) tuple per failed inequality; it is empty
    exactly when every applicable check passed.
    """
    monotone_ok: bool
    acceptance_ok: bool
    lambda_bound_ok: bool
    step_count_ok: bool
    step_length_ok: Optional[bool]
    sublinear_envelope_ok: Optional[bool]
    pl_linear_envelope_ok: Optional[bool]
    superlinear_detected: bool
    lambda_to_zero: bool
    L_hat: float
    L_source: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = asdict(self)
        out["violations"] = [[int(k), name, float(lhs), float(rhs)]
                             for (k, name, lhs, rhs) in self.violations]
        return out


def _solution_point(trace: Trace, problem: Problem) -> Optional[np.ndarray]:
    """x*: ``project_solution`` of the final iterate, else None."""
    if problem.project_solution is None or not trace.iterates:
        return None
    return np.asarray(problem.project_solution(trace.iterates[-1]), dtype=float)


def audit_trace(trace: Trace, problem: Problem, L_hat: float = 0.0) -> RateReport:
    """Re-derive every audited inequality of a finished run.

    The solver constants come from ``trace.config``.  The model-error
    constant L of the ceiling and the step-count bound is the problem's
    ``model_error_bound`` when it declares one, and the model error of
    every consecutive-iterate pair, up to its rounding allowance (see
    ``_model_errors``), is checked against it (``model_error_bound``), so
    a bound the run itself contradicts fails the audit.  Otherwise L is
    ``L_hat``, the sampled constant (see ``assumption2_sample``), with the
    pairs folded in, since the theory bounds must hold along the segments
    the run actually visited.
    The fresh f' at each iterate (x0 included) is checked against the
    stored ``trace.grads``, never replaced by them, and each recorded
    decrease F_i - F_{i+1} against F(x_i) - F(x_{i+1}) (``objective_cache``).
    The envelopes take F* = F(x*) at x* = ``project_solution`` of the final
    iterate; without a projector they are None.
    """
    cfg = trace.config
    alpha = cfg["alpha"]
    beta = cfg["beta"]
    m = cfg["m"]
    Lam0 = cfg["lambda0"]
    recs = trace.records
    violations = []

    xs = [trace.x0] + list(trace.iterates)
    fgrads = [_grad(problem, x) for x in xs]
    certified = problem.model_error_bound is not None
    pairs = zip(xs, xs[1:], fgrads, fgrads[1:])
    errors = [e for block in _model_error_blocks(problem, pairs)
              for e in _model_errors(problem, block, rounding=certified)]
    if certified:
        L_eff = float(problem.model_error_bound(problem.metric))
        for r, e in zip(recs, errors):
            if e is not None and e[0] > L_eff * (1.0 + SLACK) + e[1]:
                violations.append((r.k, "model_error_bound", e[0], L_eff))
    else:
        L_eff = max([float(L_hat)] + [e[0] for e in errors if e])
    lam_bar = max(2.0 * m * L_INFLATION * L_eff, Lam0)

    # (a) monotone objective
    F_prev = trace.F0
    for r in recs:
        if r.F > F_prev + SLACK * max(1.0, abs(F_prev)):
            violations.append((r.k, "monotone_F", r.F, F_prev))
        F_prev = r.F

    # (b) regulariser ceiling
    for r in recs:
        if r.lam > lam_bar * (1.0 + SLACK):
            violations.append((r.k, "lambda_bound", r.lam, lam_bar))

    # (c) backtracking-count identity: sum of accepted trial exponents
    bound_const = math.log2(max(0.5, m * L_INFLATION * L_eff / Lam0)) + 1.0
    n_steps = 0
    for r in recs:
        n_steps += r.j
        bound = r.k + 1 + bound_const
        if n_steps > bound + SLACK * max(1.0, abs(bound)):
            violations.append((r.k, "step_count", float(n_steps), bound))

    # (f) acceptance inequalities re-evaluated from stored iterates
    F_vals = [trace.F0] + [r.F for r in recs]
    psis = [problem.psi(x) for x in xs]
    F_xs = [f + p for f, p in zip(_values(problem, xs), psis)]
    gpn2s = _squared_dual_norms(problem, trace.grads[:len(recs)])
    rng = SplitMix64(0xACCE9700)
    lo, hi = _sample_bounds(problem)
    for i, r in enumerate(recs):
        x_prev, x_next = xs[i], xs[i + 1]
        g_next = trace.grads[i]
        d = x_next - x_prev
        lhs1 = float(g_next @ (-d))
        rhs1 = (alpha / r.lam) * gpn2s[i]
        if lhs1 < rhs1 - SLACK * max(1.0, abs(rhs1)):
            violations.append((r.k, "acceptance_gradient", lhs1, rhs1))
        dec = F_vals[i] - F_vals[i + 1]
        rhs2 = beta * r.lam * float(problem.metric.inner(d, d))
        if dec < rhs2 - SLACK * max(1.0, abs(rhs2)):
            violations.append((r.k, "acceptance_decrease", dec, rhs2))
        # the recorded decrease against F itself
        dec_F = F_xs[i] - F_xs[i + 1]
        if abs(dec - dec_F) > SLACK * max(1.0, abs(F_xs[i])):
            violations.append((r.k, "objective_cache", dec, dec_F))
        # certified-gradient consistency
        if problem.smooth:
            if not np.array_equal(g_next, fgrads[i + 1]):
                violations.append((r.k, "gradient_cache", 0.0, 0.0))
        else:
            psi_sub = g_next - fgrads[i + 1]
            psi_x = psis[i + 1]
            for _ in range(3):
                y = lo + (hi - lo) * rng.uniforms(problem.dim)
                gap = problem.psi(y) - psi_x - float(psi_sub @ (y - x_next))
                if gap < -1e-9:
                    violations.append((r.k, "psi_subgradient", gap, 0.0))

    # the checks the declarations make applicable; F* = F(x*)
    x_star = _solution_point(trace, problem)
    f_star = None if x_star is None else problem.value(x_star)
    known_gap = f_star is not None
    applies = {
        "step_length_ok": problem.hess_psd,
        "sublinear_envelope_ok": known_gap,
        "pl_linear_envelope_ok": known_gap and problem.strong_convexity is not None,
    }

    # step-length bound at accepted steps (needs a certified subgradient
    # at the step's base point, available from the previous record)
    if applies["step_length_ok"]:
        for i in range(1, len(recs)):
            lhs = recs[i].step_norm
            rhs = recs[i - 1].grad_dual_norm / recs[i].lam
            if lhs > rhs * (1.0 + SLACK):
                violations.append((recs[i].k, "step_length", lhs, rhs))

    # (d) sublinear envelope for the minimal gradient norm
    if applies["sublinear_envelope_ok"]:
        gap0 = trace.F0 - f_star
        running = math.inf
        for i, r in enumerate(recs):
            running = min(running, r.grad_dual_norm)
            k = i + 1
            env = math.sqrt(max(0.0, lam_bar * gap0 / (beta * alpha * alpha * k)))
            if running > env * (1.0 + SLACK):
                violations.append((r.k, "sublinear_envelope", running, env))

    # (e) linear envelope under the declared PL modulus
    if applies["pl_linear_envelope_ok"]:
        mu = problem.strong_convexity
        gap0 = trace.F0 - f_star
        rate = 2.0 * beta * alpha * alpha * mu / (2.0 * beta * alpha * alpha * mu + lam_bar)
        for i, r in enumerate(recs):
            env = math.exp(-rate * (i + 1)) * gap0
            lhs = r.F - f_star
            if lhs > env * (1.0 + SLACK) + 1e-15 * max(1.0, abs(gap0)):
                violations.append((r.k, "pl_envelope", lhs, env))

    failed = {name for _, name, _, _ in violations}
    verdicts = {flag: failed.isdisjoint(names) if applies.get(flag, True) else None
                for flag, names in _VERDICT_CHECKS.items()}
    lam_zero, superlinear = superlinear_check(trace)
    return RateReport(**verdicts, superlinear_detected=bool(superlinear),
                      lambda_to_zero=bool(lam_zero), L_hat=L_eff,
                      L_source="certified" if certified else "sampled",
                      violations=violations)


def superlinear_check(trace: Trace):
    """Detect the fast local regime from the trace tail.

    Returns ``(lambda_to_zero, superlinear)``: the regulariser decayed
    by at least a factor 2 per accepted step on average over the last
    ``window`` records, ending at or below Lambda_0 / 2^(window-1); and
    the gradient-norm ratios over the last ``window`` steps decrease
    strictly with the final ratio at most 0.1 (``window`` is
    ``SUPERLINEAR_WINDOW``).  Shorter traces give ``(None, None)``.
    """
    window = SUPERLINEAR_WINDOW
    recs = trace.records
    if len(recs) < window + 1:
        return None, None
    lam0 = trace.config["lambda0"]
    lams = [r.lam for r in recs[-window:]]
    lam_zero = (lams[0] / lams[-1] >= 2.0 ** (window - 1)
                and lams[-1] <= lam0 / 2.0 ** (window - 1))
    gs = [r.grad_dual_norm for r in recs[-(window + 1):]]
    ratios = [gs[i + 1] / max(gs[i], 1e-300) for i in range(window)]
    decreasing = all(ratios[i + 1] < ratios[i] for i in range(window - 1))
    superlinear = decreasing and ratios[-1] <= 0.1
    return lam_zero, superlinear


def dm_condition_sample(trace: Trace, problem: Problem) -> Optional[list]:
    """Curvature-compatibility ratios along the trace tail.

    For the last ``DM_COUNT`` accepted iterates, recomputes the half-
    regularised step x+(lambda_k/2, x_k) and returns
    ``||(H(x+) - H(x_k))(x+ - x*)||_* / ||x+ - x_k||`` — the quantity
    whose decay to zero drives superlinear convergence; one H(x_k) serves
    both terms.  x* is ``project_solution`` of the final iterate; without
    a projector or an accepted iterate, returns None.
    """
    x_star = _solution_point(trace, problem)
    if x_star is None:
        return None
    xs = [trace.x0] + list(trace.iterates)
    recs = trace.records
    step = smooth_step if problem.smooth else composite_step
    out = []
    for i in range(max(0, len(recs) - DM_COUNT), len(recs)):
        x_k = xs[i]
        H_k = Operator(problem.hess(x_k))
        sub = step(problem, x_k, _grad(problem, x_k), H_k, recs[i].lam / 2.0)
        if not sub.computable:
            continue
        x_plus = sub.x_plus
        dn = problem.metric.norm(x_plus - x_k)
        if dn <= 1e-300:
            out.append(0.0)
            continue
        e = x_plus - x_star
        dH = _hess_products(problem, [x_plus], [e])[0] - H_k.apply(e)
        out.append(problem.metric.dual_norm(dH) / dn)
    return out


def manifold_check(trace: Trace) -> Optional[int]:
    """First index from which the exact zero set is the final iterate's.

    The iterate sequence counts the start point as index 0.  Returns
    None when the final iterate has no exact zero.
    """
    xs = [trace.x0] + list(trace.iterates)
    zeros = xs[-1] == 0.0
    if not zeros.any():
        return None
    return max((i + 1 for i, x in enumerate(xs)
                if not np.array_equal(x == 0.0, zeros)), default=0)

