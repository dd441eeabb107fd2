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
from leapssn.suite import (SplitMix64, partial_smooth_2d, quadratic,
                           rank_deficient_ls, rosenbrock, svm_data,
                           svm_problem)
from leapssn.suite.registry import broken_gradient_problem
from leapssn.verify import _sample_groups, assumption2_sample


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


@pytest.mark.parametrize("build", [partial_smooth_2d, _svm],
                         ids=["partial_smooth_2d", "svm"])
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
    # one hess_apply block spans the 4 points, whose active sets differ
    prob = _svm()
    pts = sample_points(prob, 4)
    bad = dataclasses.replace(prob,
                              hess_apply=_first_base_hook(prob.hess_apply))
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
    """The problem with the callables named in HOOKS (when present)
    wrapped to count their calls, and the blocks two block hooks were
    given: the points X of f_grads, the pair (X, V) of hess_apply."""
    counts = dict.fromkeys(HOOKS, 0)
    blocks = {"f_grads": [], "hess_apply": []}

    def counting(name):
        fn = getattr(problem, name)
        if fn is None:
            return None

        def wrapped(*args):
            counts[name] += 1
            if name in blocks:
                blocks[name].append(args if len(args) > 1 else args[0])
            return fn(*args)
        return wrapped

    counted = dataclasses.replace(problem, **{name: counting(name)
                                              for name in counts})
    return counted, counts, blocks


def test_each_point_is_evaluated_once():
    # 40 box base points with 2 partners, 10 near-kink ones with 6: 190
    # points and 140 directions.  With the hooks the points go through
    # f_grads and the directions through hess_apply in blocks of at most
    # 50 columns that span base points, each point and each direction in
    # exactly one column; without them f' is one f_grad call per point
    # and H(x) is formed once per base point
    plain = dataclasses.replace(partial_smooth_2d(), hess_apply=None,
                                f_values=None, f_grads=None)
    for problem, tol in ((partial_smooth_2d(), 1e-10), (plain, 1e-10),
                         (_svm(), 1e-6)):
        prob, counts, blocks = _counted(problem)
        assumption2_sample(prob)
        hooked = problem.f_grads is not None
        if hooked:
            groups = list(_sample_groups(problem))
            assert [X.shape[1] for X in blocks["f_grads"]] == [50, 50, 50, 40]
            np.testing.assert_array_equal(
                np.hstack(blocks["f_grads"]),
                np.column_stack([p for g in groups for p in g]))
            X, V = zip(*blocks["hess_apply"])
            assert [b.shape[1] for b in V] == [50, 50, 40]
            X, V = np.hstack(X), np.hstack(V)
            np.testing.assert_array_equal(
                X, np.column_stack([x for x, *ys in groups for _ in ys]))
            np.testing.assert_array_equal(
                V, np.column_stack([y - x for x, *ys in groups for y in ys]))
            assert counts["f_grad"] == counts["hess"] == 0
        else:
            assert counts["f_grads"] == counts["hess_apply"] == 0
            assert (counts["f_grad"], counts["hess"]) == (190, 50)

        # grad_check: x + step d and x - step d as two f_values blocks per
        # base point (dim <= 50 directions each), and one more block and
        # one f_value per point to check the hook; else f_value per point
        counts.update(dict.fromkeys(HOOKS, 0))
        grad_check(prob, sample_points(prob, 4))
        if hooked:
            assert (counts["f_values"], counts["f_value"]) == (9, 4)
        else:
            assert (counts["f_values"], counts["f_value"]) == (0, 16)

        # audit_trace: f_grad once per iterate; H at the first iterate of
        # each of its pairs, by hess_apply in blocks of at most 50 pairs
        res = leap_ssn(problem, grad_tol=tol)
        assert res.status == "converged"
        pairs = len(res.trace.records)
        counts.update(dict.fromkeys(HOOKS, 0))
        blocks["hess_apply"].clear()
        audit_trace(res.trace, prob)
        assert counts["f_grad"] == pairs + 1
        assert counts["f_grads"] == 0
        if hooked:
            widths = [V.shape[1] for _, V in blocks["hess_apply"]]
            assert sum(widths) == pairs and max(widths) <= 50
            assert len(widths) == -(-pairs // 50) and counts["hess"] == 0
            xs = np.column_stack([res.trace.x0] + res.trace.iterates[:-1])
            np.testing.assert_array_equal(
                np.hstack([X for X, _ in blocks["hess_apply"]]), xs)
        else:
            assert (counts["hess"], counts["hess_apply"]) == (pairs, 0)


def test_hess_apply_leaves_the_model_error_constant():
    prob = _svm()
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
    res = leap_ssn(prob, x0=prob.solution + 2.0)
    bad = copy.deepcopy(res.trace)
    bad.records[2].F = bad.records[1].F + 1.0       # objective went up
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert not rep.ok
    assert not rep.monotone_ok
    assert any(v[1] == "monotone_F" for v in rep.violations)


def test_audit_flags_tampered_lambda():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution + 2.0)
    bad = copy.deepcopy(res.trace)
    bad.records[1].lam = 1e9                        # impossible proposal
    rep = audit_trace(bad, prob)
    _assert_verdicts(rep)
    assert not rep.ok
    assert any(v[1] in ("lambda_bound", "acceptance_gradient",
                        "acceptance_decrease") for v in rep.violations)


def test_audit_flags_tampered_gradient_cache():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution + 2.0)
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
    x0 = None if shift is None else prob.solution + shift
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


def test_manifold_detection():
    res = leap_ssn(partial_smooth_2d(), grad_tol=1e-10)
    idx = manifold_check(res.trace)
    assert idx is not None and idx <= 2     # the kink coordinate locks early

    smooth = leap_ssn(quadratic())
    assert manifold_check(smooth.trace) is None


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
