"""Verification harness: positive runs audit clean, corrupted or broken
inputs are flagged.  The negative controls matter as much as the positive
ones -- a checker that never fires is worthless."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from leapssn import (audit_trace, dm_condition_sample, grad_check,
                     hess_symmetry_check, leap_ssn, manifold_check,
                     sample_points, step_length_bound, step_shift_bound,
                     superlinear_check)
from leapssn.driver import Record, Trace
from leapssn.cli import GRAD_CHECK_TOL, HESS_SYM_TOL
from leapssn.suite import (SplitMix64, l1_svm_problem, partial_smooth_2d,
                           plate_problem, quadratic, rank_deficient_ls,
                           rosenbrock, svm_data, svm_problem)
from leapssn.suite.registry import broken_gradient_problem
from leapssn.verify import (BLOCK_DIRECTIONS, BOX_RADIUS, _sample_groups,
                            _width, assumption2_sample)


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
    # sparse penalty rows: hess_apply without f_values/f_grads
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


@pytest.mark.parametrize("hook", ["f_values", "f_grads"])
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
    plain = dataclasses.replace(prob, f_values=None, f_grads=None)
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


def test_curvature_ratio_estimates():
    # constant Hessian: the second-order model is exact, ratio ~ 0
    assert assumption2_sample(quadratic()) <= 1e-9
    # piecewise-quadratic with a curvature jump of 2 across the kink
    est = assumption2_sample(partial_smooth_2d())
    assert 1.0 <= est <= 2.0 + 1e-6


# the violation names each RateReport verdict owns
VERDICT_NAMES = {
    "monotone_ok": {"monotone_F"},
    "acceptance_ok": {"acceptance_gradient", "acceptance_decrease",
                      "gradient_cache", "psi_subgradient"},
    "lambda_bound_ok": {"lambda_bound"},
    "step_count_ok": {"step_count"},
    "step_length_ok": {"step_length"},
    "sublinear_envelope_ok": {"sublinear_envelope"},
    "pl_linear_envelope_ok": {"pl_envelope"},
    "convex_envelope_ok": {"convex_envelope"},
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


HOOKS = ("f_value", "f_values", "f_grad", "f_grads", "hess", "hess_apply")


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


def test_each_point_is_evaluated_once():
    # 40 box base points with 2 partners, 10 near-kink ones with 6: 190
    # points and 140 directions.  One rule for every problem: a block
    # holds whole base points and at most _width directions (50 with
    # f_grads on dense rows, else BLOCK_DIRECTIONS), in drawn order;
    # hess_apply and Metric.solve are called once per block and f_grads
    # once per 50 of its points.  Without the hooks f' is one f_grad call
    # per point and H is formed once per direction.  Either way each
    # point and each direction sits in exactly one column, in drawn order
    plain = dataclasses.replace(partial_smooth_2d(), hess_apply=None,
                                f_values=None, f_grads=None)
    for problem, tol in ((partial_smooth_2d(), 1e-10), (plain, 1e-10),
                         (_svm(), 1e-6), (_plate(), 1e-8)):
        prob, calls = _counted(problem)
        assumption2_sample(prob)
        width = _width(problem)
        groups = list(_sample_groups(problem))
        points = [p for g in groups for p in g]
        bases = [x for x, *ys in groups for _ in ys]
        dirs = [y - x for x, *ys in groups for y in ys]

        # blocks of whole groups (box points: 2 directions, near-kink: 6)
        per_block = _widths(calls["solve"])
        ends = set(np.cumsum([len(g) - 1 for g in groups]))
        assert set(np.cumsum(per_block)) <= ends
        assert max(per_block) <= width
        if width == 50:
            # 25 box points; 15 box and 3 near-kink; 7 near-kink
            assert per_block == [50, 48, 42]
        else:
            assert width == BLOCK_DIRECTIONS
            assert per_block == [8] * 10 + [6] * 10

        if problem.f_grads is not None:
            # 75, 66 and 49 points in those blocks, 50 per f_grads call
            assert _widths(calls["f_grads"]) == [50, 25, 50, 16, 49]
            np.testing.assert_array_equal(np.hstack(calls["f_grads"]),
                                          np.column_stack(points))
            assert not calls["f_grad"]
        else:
            assert not calls["f_grads"] and len(calls["f_grad"]) == 190
            assert all(np.array_equal(a, b)
                       for a, b in zip(calls["f_grad"], points))
        if problem.hess_apply is not None:
            X, V = zip(*calls["hess_apply"])
            assert _widths(V) == per_block
            np.testing.assert_array_equal(np.hstack(X), np.column_stack(bases))
            np.testing.assert_array_equal(np.hstack(V), np.column_stack(dirs))
            assert not calls["hess"]
        else:
            assert not calls["hess_apply"] and len(calls["hess"]) == 140
            assert all(np.array_equal(x, b)
                       for x, b in zip(calls["hess"], bases))

        # grad_check: x + step d and x - step d as two f_values blocks per
        # base point (dim <= 50 directions each), and one more block and
        # one f_value per point to check the hook; without it f_value per
        # point and coordinate direction, and twice per point for the
        # hook check, which then compares f_value with itself
        for log in calls.values():
            log.clear()
        grad_check(prob, sample_points(prob, 4))
        if problem.f_values is not None:
            assert (len(calls["f_values"]), len(calls["f_value"])) == (9, 4)
        else:
            assert not calls["f_values"]
            assert len(calls["f_value"]) == 4 * 2 * problem.dim + 8

        # audit_trace: f_grad once per iterate; H at the first iterate of
        # each of its pairs, by hess_apply in blocks of at most _width
        # pairs, else formed once per pair
        res = leap_ssn(problem, grad_tol=tol)
        assert res.status == "converged"
        pairs = len(res.trace.records)
        for log in calls.values():
            log.clear()
        audit_trace(res.trace, prob)
        assert len(calls["f_grad"]) == pairs + 1
        assert not calls["f_grads"]
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
    prob = build()
    plain = dataclasses.replace(prob, hess_apply=None)
    a, b = assumption2_sample(prob), assumption2_sample(plain)
    assert abs(a - b) <= 1e-12 * b
    trace = leap_ssn(prob, grad_tol=1e-6).trace
    a = audit_trace(trace, prob).L_hat
    b = audit_trace(trace, plain).L_hat
    assert b > 0 and abs(a - b) <= 1e-12 * b


def test_audit_clean_run():
    prob = rank_deficient_ls(20, 12)
    res = leap_ssn(prob)
    rep = audit_trace(res.trace, prob)
    assert rep.ok, rep.violations
    assert rep.monotone_ok and rep.acceptance_ok and rep.lambda_bound_ok
    assert rep.pl_linear_envelope_ok is True        # f_star + curvature known
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


@pytest.mark.parametrize("shift", [None, 2.0])
def test_convex_envelope(shift):
    # d0 is the diameter of the sublevel set {F <= F0} of a mu-strongly
    # convex objective: 2 sqrt(2 (F0 - f*) / mu)
    prob = quadratic()
    x0 = None if shift is None else prob.project_solution(prob.x0) + shift
    trace = leap_ssn(prob, x0=x0).trace
    d0 = 2.0 * math.sqrt(2.0 * (trace.F0 - prob.f_star) / prob.strong_convexity)
    rep = audit_trace(trace, prob, d0=d0)
    _assert_verdicts(rep)
    assert rep.ok and rep.convex_envelope_ok is True
    rep = audit_trace(trace, prob, d0=1e-6)
    _assert_verdicts(rep)
    assert rep.convex_envelope_ok is False
    assert any(v[1] == "convex_envelope" for v in rep.violations)


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
