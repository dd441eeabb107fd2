"""Theory-audit harness for solver traces and problem definitions.

Three layers:

* derivative/structure oracles — ``grad_check`` (finite differences),
  ``hess_symmetry_check``, and ``assumption2_sample`` which estimates the
  model-error constant L of the regularised Newton model as the largest
  ``||f'(y) - f'(x) - H(x)(y-x)||_* / ||y-x||`` over sampled base points
  x and their random, short-range and near-kink partners y;

* trace audits — ``audit_trace`` re-derives every promise the adaptive
  driver makes (monotone objective, both acceptance inequalities, the
  regulariser ceiling, the backtracking-count identity, and the global
  rate envelopes that apply given the problem's declared constants),
  ``superlinear_check`` and ``dm_condition_sample`` detect the fast
  local regime, ``manifold_check`` the finite identification of the
  nonsmooth manifold;

* step-map bounds — ``step_length_bound`` and ``step_shift_bound``
  evaluate two a-priori inequalities the regularised proximal step
  satisfies (step length vs subgradient norm, and lambda-sensitivity) as
  (lhs, rhs) pairs for property tests.

Each point is evaluated once, and all evaluation takes one path
(``_columns``): a list of columns goes through a block hook
(``f_values``, ``f_grads``, ``hess_apply``, or ``Metric.solve`` for the
dual norms ``||.||_*``) in dim x k blocks of at most ``_width`` columns,
each column with its own base point, or, when the problem lacks the
hook, through ``f_value``, ``f_grad`` or ``hess(x) @ d`` column by
column.  ``_width`` is ``GRAD_DIRECTIONS`` with the ``f_grads`` hook
(dense rows), else ``BLOCK_DIRECTIONS``, which bounds what a large mesh
holds.  The model errors of ``assumption2_sample`` and of
``audit_trace``'s iterate pairs come in blocks of whole base points (or
iterate pairs) of at most ``_width`` directions, drawn as needed; each
block's points, directions and dual norms are such lists, and so are
``grad_check``'s shifted points x + step d and x - step d of a point.
``audit_trace`` evaluates f' once per iterate, by ``f_grad``, for its
gradient checks and its iterate pairs, since its cache check compares
with the solver's stored gradients bit for bit.  Sample sizes and seeds
are fixed module constants, so an audit of a given trace always repeats.

Every envelope check is one-sided: the harness asserts trace <= bound,
never tightness.  Sampled constants may undershoot the truth, so all
theory bounds inflate the constant by 5% and carry a 1e-8 relative
arithmetic slack; checks whose required constants are missing are
reported as not-applicable (None), never silently passed.
"""

from __future__ import annotations

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
L_INFLATION = 1.05  # sampled model-error constants may undershoot the truth
GRAD_STEP = 1e-6    # central-difference base step
MAX_COORD_DIM = 200  # coordinate-wise differences up to here, directions beyond
GRAD_DIRECTIONS = 50  # random directions beyond, and columns per block
BLOCK_DIRECTIONS = 8  # columns per block without f_grads
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
    ``f_grads`` hook (dense rows), else ``BLOCK_DIRECTIONS``, which bounds
    what a large mesh holds."""
    return GRAD_DIRECTIONS if problem.f_grads is not None else BLOCK_DIRECTIONS


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


def _grads(problem: Problem, pts) -> list:
    """f' at each point of ``pts``, through ``f_grads``."""
    return _columns(problem, problem.f_grads, lambda x: _grad(problem, x), pts)


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


def _block_hook_error(problem: Problem, points, grads) -> float:
    """Largest relative mismatch of ``_values`` and ``_grads`` against
    per-point ``f_value`` and the per-point ``grads`` at ``points``, times
    ``HOOK_WEIGHT`` (0 without the ``f_values`` and ``f_grads`` hooks)."""
    worst = 0.0
    for x, w in zip(points, _values(problem, points)):
        v = float(problem.f_value(x))
        worst = max(worst, abs(w - v) / max(1.0, abs(v)))
    for g, h in zip(grads, _grads(problem, points)):
        gn = float(np.linalg.norm(g))
        worst = max(worst, float(np.linalg.norm(h - g)) / max(1.0, gn))
    return HOOK_WEIGHT * worst


def grad_check(problem: Problem, points) -> float:
    """Max relative error of f' against central finite differences.

    Coordinate-wise differences for dim <= 200; for larger problems 50
    seeded random directions (a full coordinate sweep would straddle
    penalty kinks often enough to pollute the measurement).  A base
    point's shifted points x + step d and x - step d are evaluated as two
    blocks when the problem has the ``f_values`` hook.

    The ``f_values`` and ``f_grads`` hooks are compared with per-point
    ``f_value`` and ``f_grad`` at ``points``, and their largest relative
    mismatch, times ``HOOK_WEIGHT``, is folded in.  A hook re-evaluates
    the same f, so it agrees to rounding (~1e-15), which adds ~1e-11,
    below the differences' own error; a hook off by 1e-9 or more reaches
    the 1e-5 tolerance that ``leapssn verify`` holds this check to.
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
    grads = []
    for x in points:
        g = _grad(problem, x)
        grads.append(g)
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
    return max(worst, _block_hook_error(problem, points, grads))


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


def _model_error(problem: Problem, pairs) -> float:
    """Largest finite model-error ratio
    ``||f'(y) - f'(x) - H(x)(y - x)||_* / ||y - x||`` over one block of
    ``pairs`` (x, y, f'(x), f'(y)), or 0."""
    kept = []
    for x, y, g_x, g_y in pairs:
        d = y - x
        nd = problem.metric.norm(d)
        if np.isfinite(nd) and nd > 1e-14:
            kept.append((x, d, nd, g_y - g_x))
    Hds = _hess_products(problem, [k[0] for k in kept], [k[1] for k in kept])
    errs = _squared_dual_norms(problem,
                               [k[3] - Hd for k, Hd in zip(kept, Hds)])
    best = 0.0
    for (_, _, nd, _), e2 in zip(kept, errs):
        r = math.sqrt(max(0.0, e2)) / nd
        if np.isfinite(r):
            best = max(best, r)
    return best


def _model_error_blocks(problem: Problem, items, width=lambda item: 1):
    """The blocks ``_model_error`` takes ``items`` (a base point's sample,
    or an iterate pair, each ``width(item)`` directions) in: whole items,
    drawn as needed, and at most ``_width`` directions (or one item) per
    block, so that a large problem holds a bounded block of points and
    gradients at a time."""
    limit = _width(problem)
    block, cols = [], 0
    for item in items:
        if block and cols + width(item) > limit:
            yield block
            block, cols = [], 0
        block.append(item)
        cols += width(item)
    if block:
        yield block


def _sample_groups(problem: Problem):
    """``assumption2_sample``'s points in SplitMix64 order, one list per
    base point: the base point, then its partners."""
    rng = SplitMix64(MODEL_ERROR_SEED)
    lo, hi = _sample_bounds(problem)
    span = hi - lo
    for _ in range(MODEL_ERROR_BASES):
        x = lo + span * rng.uniforms(problem.dim)
        yield [x, lo + span * rng.uniforms(problem.dim),
               x + 1e-3 * span * (rng.uniforms(problem.dim) - 0.5)]

    if problem.near_kink is not None:
        for _ in range(max(4, MODEL_ERROR_BASES // 4)):
            x = np.asarray(problem.near_kink(rng), dtype=float)
            pts = [x, x + 1e-7 * rng.normals(problem.dim),
                   x + 1e-2 * span * (rng.uniforms(problem.dim) - 0.5)]
            for i in (rng.raw(4) % np.uint64(problem.dim)).astype(int):
                y = x.copy()
                y[i] -= 4e-9 * float(rng.signs(1)[0])
                pts.append(y)
            yield pts


def assumption2_sample(problem: Problem) -> float:
    """Sampled model-error constant: max ratio over base points and partners.

    Each box base point gets a box-scale and a short-range partner inside
    the sampling box.  When the problem exposes a ``near_kink`` sampler,
    further base points sit at the active-set boundary, with partners
    that straddle it: dense short steps plus single-coordinate crossings,
    which realise the worst per-component curvature jumps.
    """
    best = 0.0
    groups = _sample_groups(problem)
    for block in _model_error_blocks(problem, groups, lambda g: len(g) - 1):
        grads = iter(_grads(problem, [p for group in block for p in group]))
        pairs = []
        for x, *partners in block:
            g_x = next(grads)
            pairs += [(x, y, g_x, next(grads)) for y in partners]
        best = max(best, _model_error(problem, pairs))
    return best


#: The violation names each verdict flag of a :class:`RateReport` owns: a
#: flag is False exactly when one of its names was recorded.
_VERDICT_CHECKS = {
    "monotone_ok": ("monotone_F",),
    "acceptance_ok": ("acceptance_gradient", "acceptance_decrease",
                      "gradient_cache", "psi_subgradient"),
    "lambda_bound_ok": ("lambda_bound",),
    "step_count_ok": ("step_count",),
    "step_length_ok": ("step_length",),
    "sublinear_envelope_ok": ("sublinear_envelope",),
    "pl_linear_envelope_ok": ("pl_envelope",),
    "convex_envelope_ok": ("convex_envelope",),
}


@dataclass
class RateReport:
    """Outcome of a full trace audit.

    Booleans are per-check verdicts; ``None`` marks a check whose
    required declarations (known minimum value, PL modulus, sublevel-set
    diameter) the problem does not supply — not-applicable is reported,
    never silently passed.  ``violations`` holds one (k, name, lhs, rhs)
    tuple per failed inequality; it is empty exactly when every
    applicable check passed.
    """
    monotone_ok: bool
    acceptance_ok: bool
    lambda_bound_ok: bool
    step_count_ok: bool
    step_length_ok: bool
    sublinear_envelope_ok: Optional[bool]
    pl_linear_envelope_ok: Optional[bool]
    convex_envelope_ok: Optional[bool]
    superlinear_detected: bool
    lambda_to_zero: bool
    L_hat: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = asdict(self)
        out["violations"] = [[int(k), name, float(lhs), float(rhs)]
                             for (k, name, lhs, rhs) in self.violations]
        return out


def audit_trace(trace: Trace, problem: Problem, L_hat: float = 0.0,
                d0: Optional[float] = None) -> RateReport:
    """Re-derive every audited inequality of a finished run.

    The solver constants come from ``trace.config``.  ``L_hat`` is the
    sampled model-error constant (see ``assumption2_sample``); the
    trace's own consecutive-iterate pairs are folded in, since the theory
    bounds must hold along the segments the run actually visited.  ``d0``
    optionally declares the sublevel-set diameter for the convex envelope.
    The fresh f' at each iterate (x0 included) is checked against the
    stored ``trace.grads``, never replaced by them.
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
    L_eff = float(L_hat)
    pairs = zip(xs, xs[1:], fgrads, fgrads[1:])
    for block in _model_error_blocks(problem, pairs):
        L_eff = max(L_eff, _model_error(problem, block))
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

    # (g) acceptance inequalities re-evaluated from stored iterates
    F_vals = [trace.F0] + [r.F for r in recs]
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
        # certified-gradient consistency
        if problem.smooth:
            if not np.array_equal(g_next, fgrads[i + 1]):
                violations.append((r.k, "gradient_cache", 0.0, 0.0))
        else:
            psi_sub = g_next - fgrads[i + 1]
            psi_x = problem.psi(x_next)
            for _ in range(3):
                y = lo + (hi - lo) * rng.uniforms(problem.dim)
                gap = problem.psi(y) - psi_x - float(psi_sub @ (y - x_next))
                if gap < -1e-9:
                    violations.append((r.k, "psi_subgradient", gap, 0.0))

    # step-length bound at accepted steps (needs a certified subgradient
    # at the step's base point, available from the previous record)
    if problem.hess_psd:
        for i in range(1, len(recs)):
            lhs = recs[i].step_norm
            rhs = recs[i - 1].grad_dual_norm / recs[i].lam
            if lhs > rhs * (1.0 + SLACK):
                violations.append((recs[i].k, "step_length", lhs, rhs))

    # (d)-(f) the envelopes that the declared constants make applicable
    known_gap = problem.f_star is not None and bool(recs)
    applies = {
        "sublinear_envelope_ok": known_gap,
        "pl_linear_envelope_ok": known_gap and problem.strong_convexity is not None,
        "convex_envelope_ok": known_gap and d0 is not None,
    }

    # (d) sublinear envelope for the minimal gradient norm
    if applies["sublinear_envelope_ok"]:
        gap0 = trace.F0 - problem.f_star
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
        gap0 = trace.F0 - problem.f_star
        rate = 2.0 * beta * alpha * alpha * mu / (2.0 * beta * alpha * alpha * mu + lam_bar)
        for i, r in enumerate(recs):
            env = math.exp(-rate * (i + 1)) * gap0
            lhs = r.F - problem.f_star
            if lhs > env * (1.0 + SLACK) + 1e-15 * max(1.0, abs(gap0)):
                violations.append((r.k, "pl_envelope", lhs, env))

    # (f) convex envelope, only with a declared sublevel-set diameter
    if applies["convex_envelope_ok"]:
        g0 = trace.g0_norm
        for i, r in enumerate(recs):
            k = i + 1
            env = g0 * d0 * math.exp(-k / 4.0) + 2.0 * d0 * d0 * lam_bar / (alpha * k)
            lhs = r.F - problem.f_star
            if lhs > env * (1.0 + SLACK):
                violations.append((r.k, "convex_envelope", lhs, env))

    failed = {name for _, name, _, _ in violations}
    verdicts = {flag: failed.isdisjoint(names) if applies.get(flag, True) else None
                for flag, names in _VERDICT_CHECKS.items()}
    lam_zero, superlinear = superlinear_check(trace)
    return RateReport(**verdicts, superlinear_detected=bool(superlinear),
                      lambda_to_zero=bool(lam_zero), L_hat=L_eff,
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


def _step(problem: Problem, x, g, H, lam):
    """The driver's trial step at ``x`` for ``lam``, given f'(x) and H(x)."""
    step = smooth_step if problem.smooth else composite_step
    return step(problem, x, g, H, lam)


def dm_condition_sample(trace: Trace, problem: Problem) -> Optional[list]:
    """Curvature-compatibility ratios along the trace tail.

    For the last ``DM_COUNT`` accepted iterates, recomputes the half-
    regularised step x+(lambda_k/2, x_k) and returns
    ``||(H(x+) - H(x_k))(x+ - x*)||_* / ||x+ - x_k||`` — the quantity
    whose decay to zero drives superlinear convergence; one H(x_k) serves
    both terms.  x* is ``project_solution`` of the final iterate; without
    a projector or an accepted iterate, returns None.
    """
    if problem.project_solution is None or not trace.iterates:
        return None
    x_star = np.asarray(problem.project_solution(trace.iterates[-1]), dtype=float)
    xs = [trace.x0] + list(trace.iterates)
    recs = trace.records
    out = []
    for i in range(max(0, len(recs) - DM_COUNT), len(recs)):
        x_k = xs[i]
        H_k = Operator(problem.hess(x_k))
        sub = _step(problem, x_k, _grad(problem, x_k), H_k, recs[i].lam / 2.0)
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
    g = _grad(problem, x)
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
    g = _grad(problem, x)
    # one H per lambda: a shared sparse H would send lam2's rung to PCG
    s1 = _step(problem, x, g, problem.hess(x), lam)
    s2 = _step(problem, x, g, problem.hess(x), lam2)
    if not (s1.computable and s2.computable):
        return None
    lhs = problem.metric.norm(s1.x_plus - s2.x_plus)
    rhs = (lam2 - lam) / lam2 * problem.metric.norm(x - s1.x_plus)
    return lhs, rhs
