"""Verification harness: positive runs audit clean, corrupted or broken
inputs are flagged.  The negative controls matter as much as the positive
ones -- a checker that never fires is worthless."""

import copy
import dataclasses

import numpy as np
import pytest

from leapssn import (audit_trace, dm_condition_sample, grad_check,
                     hess_symmetry_check, leap_ssn, manifold_check,
                     sample_points, superlinear_check)
from leapssn import verify
from leapssn.driver import Record, Trace
from leapssn.subsolver import SubproblemResult
from leapssn.cli import GRAD_CHECK_TOL, HESS_SYM_TOL
from leapssn.suite import (SplitMix64, l1_svm_problem, partial_smooth_2d,
                           plate_problem, quadratic, rank_deficient_ls,
                           rosenbrock, svm_data, svm_problem)
from leapssn.suite.registry import broken_gradient_problem
from leapssn.verify import (BLOCK_DIRECTIONS, BOX_RADIUS, MODEL_ERROR_BASES,
                            MODEL_ERROR_SEED, _sample_bounds, _width,
                            assumption2_sample)
from stepmaps import step_length_bound, step_shift_bound


def test_grad_check_accepts_exact_gradients():
    prob = quadratic()
    pts = sample_points(prob, 6)
    assert len(pts) == 6
    assert grad_check(prob, pts) <= 1e-9       # quadratic: central diff exact


def test_grad_check_flags_biased_gradient():
    prob = broken_gradient_problem()
    assert grad_check(prob, sample_points(prob, 6)) > 1e-5


def test_hess_symmetry_on_suite_members():
    for prob in (quadratic(), rosenbrock(n=4), partial_smooth_2d()):
        pts = sample_points(prob, 4)
        assert hess_symmetry_check(prob, pts) <= 1e-9


def _svm():
    return svm_problem(*svm_data(300, 20, 0), 1e3)


def _plate():
    # sparse penalty rows: hess_apply without f_values
    return plate_problem(9, 1e4)


@pytest.mark.parametrize("build", [partial_smooth_2d, _svm, _plate],
                         ids=["partial_smooth_2d", "svm", "plate"])
def test_hess_symmetry_flags_a_wrong_hess_apply(build):
    prob = build()
    pts = sample_points(prob, 4)
    assert hess_symmetry_check(prob, pts) <= HESS_SYM_TOL
    hook = prob.hess_apply
    bad = dataclasses.replace(
        prob, hess_apply=lambda X, V: (1.0 + 1e-6) * hook(X, V))
    assert hess_symmetry_check(bad, pts) > HESS_SYM_TOL


def _first_base_hook(hook):
    """A wrong hess_apply that takes column 0's base point for every
    column of its block."""
    return lambda X, V: hook(np.repeat(X[:, :1], V.shape[1], axis=1), V)


def test_hess_symmetry_flags_a_hess_apply_that_ignores_column_bases():
    # the hess_apply blocks span the 4 points, whose active sets differ,
    # on dense penalty rows (svm: one block) and on sparse ones (plate:
    # blocks of BLOCK_DIRECTIONS probes, each spanning two or three)
    for prob in (_svm(), _plate()):
        pts = sample_points(prob, 4)
        assert hess_symmetry_check(prob, pts) <= HESS_SYM_TOL
        bad = dataclasses.replace(
            prob, hess_apply=_first_base_hook(prob.hess_apply))
        assert hess_symmetry_check(bad, pts) > HESS_SYM_TOL


@pytest.mark.parametrize("hook", ["f_values"])
def test_grad_check_flags_a_wrong_block_hook(hook):
    for prob in (_svm(), partial_smooth_2d()):
        pts = sample_points(prob, 4)
        assert grad_check(prob, pts) <= 1e-8
        fn = getattr(prob, hook)
        bad = dataclasses.replace(
            prob, **{hook: lambda X, fn=fn: (1.0 + 1e-6) * fn(X)})
        assert grad_check(bad, pts) > GRAD_CHECK_TOL


def test_block_hooks_leave_grad_check_near_its_pointwise_error():
    # 251 unknowns: the direction branch, two 50-point blocks per base point
    prob = svm_problem(*svm_data(1000, 250, 1), 1.0)
    plain = dataclasses.replace(prob, f_values=None)
    pts = sample_points(prob, 4)
    a, b = grad_check(prob, pts), grad_check(plain, pts)
    assert 0 < a <= 2 * b <= 1e-9


def test_sample_points_deterministic_and_boxed():
    prob = quadratic()
    a = sample_points(prob, 5)
    b = sample_points(prob, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    lo, hi = prob.sample_box
    for x in a:
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)


def test_sample_points_default_to_the_radius_box():
    prob = dataclasses.replace(quadratic(), sample_box=None)
    pts = sample_points(prob, 5)
    assert all(np.all(np.abs(x) <= BOX_RADIUS) for x in pts)
    assert max(np.abs(x).max() for x in pts) > BOX_RADIUS / 2


def _sampled(problem):
    """The problem without its certified model-error bound, so that the
    audit takes L from assumption2_sample's sample."""
    return dataclasses.replace(problem, model_error_bound=None)


def test_curvature_ratio_estimates():
    # constant Hessian: the second-order model is exact, ratio ~ 0
    assert assumption2_sample(_sampled(quadratic())) <= 1e-9
    # piecewise-quadratic with a curvature jump of 2 across the kink
    est = assumption2_sample(_sampled(partial_smooth_2d()))
    assert 1.0 <= est <= 2.0 + 1e-6


@pytest.mark.parametrize("build, L", [
    (rosenbrock, 2710.951866250383),
    (broken_gradient_problem, 1.528193144275358e-16),
    (lambda: _sampled(_plate()), 15.6617843803097),
], ids=["rosenbrock", "broken_gradient", "plate"])
def test_the_model_error_sample_is_pinned(build, L):
    # the seeded sample, f' by f_grad and H(x) d by hess or hess_apply,
    # gives these values bit for bit at any BLAS thread count
    assert assumption2_sample(build()) == L


@pytest.mark.parametrize("rounding", [False, True])
def test_a_pair_with_a_nonfinite_ratio_is_skipped(rounding):
    """An infinite f'(y) gives an infinite model-error ratio: that pair
    gets None, and the finite pair beside it keeps its ratio."""
    prob = quadratic()
    x = prob.x0.astype(float)
    y = x + 1.0
    g_x, g_y = prob.f_grad(x), prob.f_grad(y)
    bad = g_y.copy()
    bad[0] = np.inf
    good, skipped = verify._model_errors(
        prob, [(x, y, g_x, g_y), (x, y, g_x, bad)], rounding=rounding)
    assert skipped is None
    assert 0.0 <= good[0] <= 1e-12 and np.isfinite(good[1])


# the violation names each RateReport verdict owns
VERDICT_NAMES = {
    "monotone_ok": {"monotone_F"},
    "acceptance_ok": {"acceptance_gradient", "acceptance_decrease",
                      "objective_cache", "gradient_cache", "psi_subgradient"},
    "lambda_bound_ok": {"lambda_bound", "model_error_bound"},
    "step_count_ok": {"step_count"},
    "step_length_ok": {"step_length"},
    "sublinear_envelope_ok": {"sublinear_envelope"},
    "pl_linear_envelope_ok": {"pl_envelope"},
}


def _assert_verdicts(rep):
    """Every violation belongs to one verdict, each verdict is False exactly
    when one of its names was recorded, and a not-applicable (None)
    verdict has none recorded."""
    names = {v[1] for v in rep.violations}
    assert names <= set().union(*VERDICT_NAMES.values()), names
    for flag, owned in VERDICT_NAMES.items():
        verdict = getattr(rep, flag)
        if verdict is None:
            assert names.isdisjoint(owned), flag
        else:
            assert verdict is names.isdisjoint(owned), flag


HOOKS = ("f_value", "f_values", "f_grad", "hess", "hess_apply")


def _counted(problem):
    """The problem with the callables named in HOOKS (when present) and
    its metric's ``solve`` wrapped to record each call's arguments: the
    point (or block X) of an f hook and of hess, the pair (X, V) of
    hess_apply, the block G of solve."""
    calls = {name: [] for name in HOOKS + ("solve",)}

    def recording(name, fn):
        if fn is None:
            return None

        def wrapped(*args):
            calls[name].append(args if len(args) > 1 else args[0])
            return fn(*args)
        return wrapped

    metric = copy.copy(problem.metric)
    metric.solve = recording("solve", problem.metric.solve)
    counted = dataclasses.replace(
        problem, metric=metric,
        **{name: recording(name, getattr(problem, name)) for name in HOOKS})
    return counted, calls


def _widths(blocks):
    return [B.shape[1] for B in blocks]


def _drawn_groups(problem):
    """assumption2_sample's points in SplitMix64 order, one list per base
    point: the base point, its box partner, its short-range partner."""
    rng = SplitMix64(MODEL_ERROR_SEED)
    lo, hi = _sample_bounds(problem)
    span = hi - lo
    groups = []
    for _ in range(MODEL_ERROR_BASES):
        x = lo + span * rng.uniforms(problem.dim)
        groups.append([x, lo + span * rng.uniforms(problem.dim),
                       x + 1e-3 * span * (rng.uniforms(problem.dim) - 0.5)])
    return groups


def test_each_point_is_evaluated_once():
    # 40 box base points with 2 partners: 120 points and 80 pairs,
    # without the certified bounds, which skip the sample (and the
    # audit's pair check, which adds H(x) x products).  One rule for
    # every problem: a block holds at most _width pairs (50 with f_values
    # on dense rows, else BLOCK_DIRECTIONS), in drawn order, so an even
    # _width keeps each base point's two pairs in one block; hess_apply
    # and Metric.solve are called once per block, and f' is one f_grad
    # call per point, in drawn order.  Without hess_apply H is formed
    # once per pair.  Either way each direction sits in exactly one
    # column, in drawn order
    plain = dataclasses.replace(partial_smooth_2d(), hess_apply=None,
                                f_values=None)
    for problem, tol in ((partial_smooth_2d(), 1e-10), (plain, 1e-10),
                         (_svm(), 1e-6), (_plate(), 1e-8)):
        problem = _sampled(problem)
        prob, calls = _counted(problem)
        assumption2_sample(prob)
        width = _width(problem)
        groups = _drawn_groups(problem)
        points = [p for g in groups for p in g]
        bases = [x for x, *ys in groups for _ in ys]
        dirs = [y - x for x, *ys in groups for y in ys]

        per_block = _widths(calls["solve"])
        assert max(per_block) <= width
        if width == 50:
            # 25 box points; 15 box points
            assert per_block == [50, 30]
        else:
            assert width == BLOCK_DIRECTIONS
            assert per_block == [8] * 10

        assert len(calls["f_grad"]) == 120
        assert all(np.array_equal(a, b)
                   for a, b in zip(calls["f_grad"], points))
        if problem.hess_apply is not None:
            X, V = zip(*calls["hess_apply"])
            assert _widths(V) == per_block
            np.testing.assert_array_equal(np.hstack(X), np.column_stack(bases))
            np.testing.assert_array_equal(np.hstack(V), np.column_stack(dirs))
            assert not calls["hess"]
        else:
            assert not calls["hess_apply"] and len(calls["hess"]) == 80
            assert all(np.array_equal(x, b)
                       for x, b in zip(calls["hess"], bases))

        # grad_check: x + step d and x - step d as two f_values blocks per
        # base point (dim <= 50 directions each), and one more block and
        # one f_value per point to check the hook; without it f_value per
        # point and coordinate direction, and no hook check
        for log in calls.values():
            log.clear()
        grad_check(prob, sample_points(prob, 4))
        if problem.f_values is not None:
            assert (len(calls["f_values"]), len(calls["f_value"])) == (9, 4)
        else:
            assert not calls["f_values"]
            assert len(calls["f_value"]) == 4 * 2 * problem.dim

        # audit_trace: f_grad once per iterate; f once per iterate, by
        # f_values in blocks of at most _width iterates, else by f_value,
        # plus one f_value at the projected final iterate where there is a
        # projector; H at the first iterate of each of its pairs, by
        # hess_apply in blocks of at most _width pairs, else formed once
        # per pair
        res = leap_ssn(problem, grad_tol=tol)
        assert res.status == "converged"
        pairs = len(res.trace.records)
        for log in calls.values():
            log.clear()
        audit_trace(res.trace, prob)
        assert len(calls["f_grad"]) == pairs + 1
        projections = int(problem.project_solution is not None)
        if problem.f_values is not None:
            assert _widths(calls["f_values"]) == [
                min(width, pairs + 1 - j) for j in range(0, pairs + 1, width)]
            assert len(calls["f_value"]) == projections
        else:
            assert not calls["f_values"]
            assert len(calls["f_value"]) == pairs + 1 + projections
        assert max(_widths(calls["solve"])) <= width
        xs = [res.trace.x0] + res.trace.iterates
        if problem.hess_apply is not None:
            X, V = zip(*calls["hess_apply"])
            assert _widths(V) == [min(width, pairs - j)
                                  for j in range(0, pairs, width)]
            np.testing.assert_array_equal(np.hstack(X),
                                          np.column_stack(xs[:-1]))
            np.testing.assert_array_equal(np.hstack(V),
                                          np.diff(np.column_stack(xs)))
            assert not calls["hess"]
        else:
            assert not calls["hess_apply"] and len(calls["hess"]) == pairs


@pytest.mark.parametrize("build", [_svm, _plate], ids=["svm", "plate"])
def test_hess_apply_leaves_the_model_error_constant(build):
    # the hook against the per-column fallback, on dense and sparse rows
    prob = _sampled(build())
    plain = dataclasses.replace(prob, hess_apply=None)
    a, b = assumption2_sample(prob), assumption2_sample(plain)
    assert abs(a - b) <= 1e-12 * b
    trace = leap_ssn(prob, grad_tol=1e-6).trace
    a = audit_trace(trace, prob).L_hat
    b = audit_trace(trace, plain).L_hat
    assert b > 0 and abs(a - b) <= 1e-12 * b


def test_a_certified_zero_model_error_survives_the_converged_tail():
    # quadratic: constant H, so its certified L is 0.  The rounding of f'
    # over the converged tail's short steps (ratios up to 1.4e-7, which
    # the sampled path folds into L) stays within each pair's rounding
    # allowance and raises no model_error_bound violation
    prob = quadratic()
    assert prob.model_error_bound(prob.metric) == 0.0
    trace = leap_ssn(prob).trace
    rep = audit_trace(trace, prob)
    _assert_verdicts(rep)
    assert rep.ok, rep.violations
    assert (rep.L_hat, rep.L_source) == (0.0, "certified")
    sampled = audit_trace(trace, _sampled(prob))
    assert sampled.L_source == "sampled" and 0.0 < sampled.L_hat < 1e-6


@pytest.mark.parametrize("build", [lambda: plate_problem(17, 1e5), _svm],
                         ids=["plate", "svm"])
def test_audit_flags_a_model_error_bound_that_is_too_small(build):
    # runs that cross kinks: a bound declared 1e3 times too small is below
    # the model error of some iterate pair, and below the ceiling the run
    # needed
    prob = build()
    trace = leap_ssn(prob).trace
    rep = audit_trace(trace, prob)
    assert rep.ok and rep.L_source == "certified"
    bound = prob.model_error_bound
    bad = dataclasses.replace(
        prob, model_error_bound=lambda metric: bound(metric) / 1e3)
    rep = audit_trace(trace, bad)
    _assert_verdicts(rep)
    assert rep.lambda_bound_ok is False
    assert "model_error_bound" in {v[1] for v in rep.violations}


def test_audit_clean_run():
    prob = rank_deficient_ls(20, 12)
    res = leap_ssn(prob)
    rep = audit_trace(res.trace, prob)
    assert rep.ok, rep.violations
    assert rep.monotone_ok and rep.acceptance_ok and rep.lambda_bound_ok
    assert rep.pl_linear_envelope_ok is True        # projector + curvature known
    assert rep.sublinear_envelope_ok is True
    d = rep.to_dict()
    assert d["violations"] == []


def test_audit_flags_corrupted_objective():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.project_solution(prob.x0) + 2.0)
    bad = copy.deepcopy(res.trace)
    bad.records[2].F = bad.records[1].F + 1.0       # objective went up
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert not rep.ok
    assert not rep.monotone_ok
    assert any(v[1] == "monotone_F" for v in rep.violations)


def test_audit_flags_tampered_lambda():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.project_solution(prob.x0) + 2.0)
    bad = copy.deepcopy(res.trace)
    bad.records[1].lam = 1e9                        # impossible proposal
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert not rep.ok
    assert any(v[1] in ("lambda_bound", "acceptance_gradient",
                        "acceptance_decrease") for v in rep.violations)


def test_audit_flags_tampered_gradient_cache():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.project_solution(prob.x0) + 2.0)
    assert audit_trace(res.trace, prob).ok
    bad = copy.deepcopy(res.trace)
    bad.grads[1] = bad.grads[1] + 1e-3
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert not rep.acceptance_ok
    assert any(v[1] == "gradient_cache" for v in rep.violations)


def test_audit_flags_a_trace_above_either_envelope():
    # quadratic() declares a projector and a PL modulus, so both envelopes
    # apply; a first gradient norm a million times the recorded one rises
    # above the sublinear envelope, and a last F put back at F0 above the
    # linear one (it also breaks monotonicity and the objective cache)
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.project_solution(prob.x0) + 2.0)
    rep = audit_trace(res.trace, prob)
    assert (rep.sublinear_envelope_ok, rep.pl_linear_envelope_ok) == (True, True)
    bad = copy.deepcopy(res.trace)
    bad.records[0].grad_dual_norm *= 1e6
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert "sublinear_envelope" in {v[1] for v in rep.violations}
    assert rep.sublinear_envelope_ok is False
    bad = copy.deepcopy(res.trace)
    bad.records[-1].F = bad.F0
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert "pl_envelope" in {v[1] for v in rep.violations}
    assert rep.pl_linear_envelope_ok is False


def test_audit_flags_tampered_psi_subgradient():
    prob = partial_smooth_2d()
    res = leap_ssn(prob, grad_tol=1e-10)
    assert audit_trace(res.trace, prob).ok
    bad = copy.deepcopy(res.trace)
    bad.grads[1] = bad.grads[1] + np.array([0.0, 5.0])
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert not rep.acceptance_ok
    assert any(v[1] == "psi_subgradient" for v in rep.violations)

    # the psi part of the first stored F' is 1 in the kink coordinate (x_1
    # has x0 = 0), the edge of the subdifferential [-1, 1] of |x0| there;
    # pushed to 1.5 it breaks the subgradient inequality and nothing else
    bad = copy.deepcopy(res.trace)
    bad.grads[0] = bad.grads[0] + np.array([0.5, 0.0])
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert {v[1] for v in rep.violations} == {"psi_subgradient"}
    assert not rep.acceptance_ok


def test_audit_flags_a_wrong_objective_decrease():
    # a psi_decrease hook that doubles psi's decrease passes every check
    # that reads the trace's own F, but the trace then ends at F = 43.91
    # where F(x_K) = 48.38
    prob = l1_svm_problem(300, 20, 1, 1.0)
    assert audit_trace(leap_ssn(prob).trace, prob).ok
    bad = dataclasses.replace(
        prob, psi_decrease=lambda x, y: 2.0 * prob.psi_decrease(x, y))
    trace = leap_ssn(bad).trace
    rep = audit_trace(trace, bad)
    _assert_verdicts(rep)
    assert not rep.acceptance_ok
    flagged = {v[0] for v in rep.violations if v[1] == "objective_cache"}
    assert len(flagged) >= len(trace.records) - 1


def test_audit_takes_f_star_at_the_projected_final_iterate():
    # F shifted by 1e6: the optimal value moves with it, and the audit
    # finds it as F at the projection of the final iterate, taken once
    prob = quadratic()
    shifted = dataclasses.replace(
        prob, f_value=lambda x: prob.f_value(x) + 1e6,
        f_values=lambda X: prob.f_values(X) + 1e6)
    trace = leap_ssn(shifted).trace
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return prob.project_solution(x)

    projected = dataclasses.replace(shifted, project_solution=recorded)
    f_star = shifted.value(prob.project_solution(trace.iterates[-1]))
    assert f_star == 1e6
    rep = audit_trace(trace, projected)
    _assert_verdicts(rep)
    assert rep.ok, rep.violations[:3]
    assert (rep.sublinear_envelope_ok, rep.pl_linear_envelope_ok) == (True, True)
    assert len(seen) == 1 and np.array_equal(seen[0], trace.iterates[-1])

    # without a projector, or without an accepted iterate, no envelope
    undeclared = dataclasses.replace(shifted, project_solution=None)
    start = Trace(x0=trace.x0, F0=trace.F0, g0_norm=trace.g0_norm,
                  config=trace.config)
    for t, p in ((trace, undeclared), (start, shifted)):
        rep = audit_trace(t, p)
        assert (rep.sublinear_envelope_ok, rep.pl_linear_envelope_ok) == (None, None)


def test_step_length_is_not_applicable_without_a_psd_hessian():
    # rosenbrock declares no hess_psd, so the step-length bound never runs
    # and its verdict is None, not a pass; quadratic's runs and passes
    for prob, verdict in ((rosenbrock(), None), (quadratic(), True)):
        rep = audit_trace(leap_ssn(prob).trace, prob)
        _assert_verdicts(rep)
        assert rep.ok, rep.violations[:3]
        assert rep.step_length_ok is verdict


def test_superlinear_check_positive_and_negative():
    res = leap_ssn(partial_smooth_2d(), grad_tol=1e-10)
    assert superlinear_check(res.trace) == (True, True)

    # constant-factor linear decay must NOT count as superlinear
    g = 1.0
    lam = 1.0
    recs = []
    for k in range(12):
        g *= 0.5
        recs.append(Record(k=k, j=0, lam=lam, Lam=lam, F=g * g,
                           grad_dual_norm=g, step_norm=g, cum_solves=k + 1))
        lam /= 2.0
    fake = Trace(x0=np.zeros(2), F0=1.0, g0_norm=1.0,
                 config={"lambda0": 1.0}, records=recs)
    lam_zero, superlinear = superlinear_check(fake)
    assert lam_zero is True
    assert superlinear is False

    short = Trace(x0=np.zeros(2), F0=1.0, g0_norm=1.0,
                  config={"lambda0": 1.0}, records=recs[:3])
    assert superlinear_check(short) == (None, None)


def test_dm_ratios_vanish_for_constant_hessian():
    prob = rank_deficient_ls(20, 12)
    res = leap_ssn(prob)
    ratios = dm_condition_sample(res.trace, prob)
    assert ratios is not None and len(ratios) > 0
    assert max(ratios) <= 1e-12


def test_dm_ratios_skip_a_refused_step_and_zero_a_null_one(monkeypatch):
    # a half-regularised step the subproblem refuses gives no ratio, and
    # one that does not move gives 0.0, not a division by its length
    prob = rosenbrock(n=4)
    res = leap_ssn(prob)
    ratios = dm_condition_sample(res.trace, prob)
    assert len(ratios) >= 3 and min(ratios[2:]) > 0.0
    step, calls = verify.smooth_step, []

    def refused_then_null(problem, x, grad, H, lam):
        calls.append(lam)
        if len(calls) == 1:
            return SubproblemResult(None)
        if len(calls) == 2:
            return SubproblemResult(x.copy(), psi_grad=np.zeros_like(x))
        return step(problem, x, grad, H, lam)

    monkeypatch.setattr(verify, "smooth_step", refused_then_null)
    assert dm_condition_sample(res.trace, prob) == [0.0] + ratios[2:]
    assert len(calls) == len(ratios)


def test_dm_ratios_project_the_final_iterate_without_a_solution():
    # x* is the projection of the final iterate, taken once; without a
    # projector, or without an accepted iterate, there is no sample
    prob = partial_smooth_2d()
    res = leap_ssn(prob, grad_tol=1e-10)
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return prob.project_solution(x)

    projected = dataclasses.replace(prob, project_solution=recorded)
    ratios = dm_condition_sample(res.trace, projected)
    assert ratios and ratios == dm_condition_sample(res.trace, prob)
    assert len(seen) == 1 and np.array_equal(seen[0], res.trace.iterates[-1])
    undeclared = dataclasses.replace(prob, project_solution=None)
    assert dm_condition_sample(res.trace, undeclared) is None
    start = Trace(x0=res.trace.x0, F0=res.trace.F0,
                  g0_norm=res.trace.g0_norm, config=res.trace.config)
    assert dm_condition_sample(start, prob) is None


def test_manifold_detection():
    res = leap_ssn(partial_smooth_2d(), grad_tol=1e-10)
    idx = manifold_check(res.trace)
    assert idx is not None and idx <= 2     # the kink coordinate locks early

    smooth = leap_ssn(quadratic())
    assert manifold_check(smooth.trace) is None


@pytest.mark.parametrize("mu, index", [(100.0, 2), (200.0, 5)])
def test_manifold_check_reads_every_coordinate(mu, index):
    # l1 on the SVM weights zeroes some of them exactly.  At mu = 100 the
    # first weight is never zero; at mu = 200 it is zero from iterate 2 on,
    # while the zero set grows over iterates 2-5 (10, 11, 13, 14 zeros)
    res = leap_ssn(l1_svm_problem(300, 20, 1, mu))
    zeros = [int((x == 0.0).sum())
             for x in [res.trace.x0] + res.trace.iterates]
    assert zeros[index] == zeros[-1] > zeros[index - 1]
    assert manifold_check(res.trace) == index


def test_step_length_bound_sampled():
    rng = SplitMix64(0x1234)
    for prob, mu in ((quadratic(), 1.0), (partial_smooth_2d(), 2.0)):
        for x in sample_points(prob, 5):
            for lam in (0.5, 2.0, 8.0):
                out = step_length_bound(prob, x, lam, mu=mu)
                assert out is not None
                lhs, rhs = out
                assert lhs <= rhs * (1.0 + 1e-8) + 1e-12


def test_step_shift_bound_sampled():
    for prob in (quadratic(), partial_smooth_2d()):
        for x in sample_points(prob, 5):
            for lam, lam2 in ((0.5, 1.0), (1.0, 4.0), (2.0, 2.0)):
                out = step_shift_bound(prob, x, lam, lam2)
                assert out is not None
                lhs, rhs = out
                assert lhs <= rhs * (1.0 + 1e-8) + 1e-12
    with pytest.raises(ValueError):
        step_shift_bound(quadratic(), quadratic().x0, 4.0, 1.0)
