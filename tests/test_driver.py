"""Adaptive prox-regularised Newton driver: acceptance loop mechanics."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from leapssn import (EXIT_CODES, TRACE_HEADER, Operator, driver, hilbert,
                     leap_ssn)
from leapssn.suite import partial_smooth_2d, quadratic, rosenbrock
from leapssn.suite.obstacle import membrane_problem, plate_problem
from leapssn.suite.registry import broken_gradient_problem


def test_quadratic_accepts_every_first_trial():
    """On an exact quadratic the model is the objective, so the very first
    trial of every iteration is accepted and the proposal keeps halving."""
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution + 2.0)
    assert res.status == "converged"
    recs = res.trace.records
    assert all(r.j == 0 for r in recs)
    assert all(r.cum_solves == r.k + 1 for r in recs)
    lams = [r.lam for r in recs]
    assert all(b == a / 2.0 for a, b in zip(lams, lams[1:]))
    assert res.solves == len(recs)


def test_statuses_and_exit_codes():
    prob = quadratic()
    x0 = prob.solution + 2.0

    ok = leap_ssn(prob, x0=x0)
    assert ok.status == "converged"
    assert EXIT_CODES[ok.status] == 0

    capped = leap_ssn(prob, x0=x0, max_outer=2, grad_tol=1e-14)
    assert capped.status == "outer_budget"
    assert capped.iterations == 2
    assert EXIT_CODES[capped.status] == 2

    starved = leap_ssn(rosenbrock(n=2), max_solves=3, grad_tol=1e-12)
    assert starved.status == "solve_budget"
    assert starved.solves <= 3
    assert EXIT_CODES[starved.status] == 2


def test_inconsistent_gradient_exhausts_inner_trials():
    # the objective never matches the reported slope, so no proposal is ever
    # accepted once the iterate reaches the spurious stationary point
    res = leap_ssn(broken_gradient_problem(), max_outer=200)
    assert res.status == "inner_budget"
    assert EXIT_CODES[res.status] == 2


def test_start_at_solution_certifies_with_one_step():
    # stationarity is only ever measured at accepted prox points, so even a
    # perfect start costs one (zero-length) certified step
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution.copy())
    assert res.status == "converged"
    assert res.iterations == 1
    assert res.solves == 1
    assert res.trace.records[0].step_norm <= 1e-12
    assert res.grad_dual_norm <= 1e-12


def test_objective_monotone_and_counters_consistent():
    prob = partial_smooth_2d()
    res = leap_ssn(prob, grad_tol=1e-10)
    assert res.status == "converged"
    recs = res.trace.records
    Fs = [res.trace.F0] + [r.F for r in recs]
    assert all(b <= a + 1e-15 for a, b in zip(Fs, Fs[1:]))
    cums = [r.cum_solves for r in recs]
    assert all(b > a for a, b in zip(cums, cums[1:]))
    assert cums[-1] == res.solves
    assert len(res.trace.iterates) == len(recs)
    assert len(res.trace.grads) == len(recs)


def test_parameter_validation():
    prob = quadratic()
    with pytest.raises(ValueError):
        leap_ssn(prob, alpha=0.75)
    with pytest.raises(ValueError):
        leap_ssn(prob, beta=0.3)   # beta must stay <= (M-1)/(2M)
    with pytest.raises(ValueError):
        leap_ssn(prob, lambda0=0.0)
    # boundary values are legal
    assert leap_ssn(prob, alpha=0.5, beta=0.25).status == "converged"


@pytest.mark.parametrize("grad_tol", [0.0, -1.0, float("nan")])
def test_nonpositive_grad_tol_is_refused(grad_tol):
    # a tolerance no accepted iterate can meet would only run out the budget
    with pytest.raises(ValueError, match="grad_tol must be positive"):
        leap_ssn(quadratic(), grad_tol=grad_tol)


def test_trace_holds_each_accepted_iterate():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution + 1.0)
    recs = res.trace.records
    assert [r.k for r in recs] == list(range(res.iterations))
    assert len(res.trace.iterates) == res.iterations
    assert np.array_equal(res.trace.iterates[-1], res.x)
    assert recs[-1].grad_dual_norm == res.grad_dual_norm <= 1e-8


def test_trace_csv_round_trip(tmp_path):
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution + 2.0)
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + len(res.trace.records)
    # repr floats survive the round trip exactly
    last = lines[-1].split(",")
    rec = res.trace.records[-1]
    assert int(last[0]) == rec.k
    assert float(last[2]) == rec.lam
    assert float(last[4]) == rec.F
    assert int(last[7]) == rec.cum_solves


def test_custom_lambda0_is_respected():
    prob = quadratic()
    res = leap_ssn(prob, x0=prob.solution + 2.0, lambda0=32.0)
    assert res.trace.records[0].Lam == 32.0
    assert res.trace.config["lambda0"] == 32.0


def test_gradient_is_evaluated_once_per_computable_trial():
    # f' at an accepted candidate is reused as the next iteration's f'(x_k)
    prob = quadratic()
    calls = 0
    f_grad = prob.f_grad

    def counted(x):
        nonlocal calls
        calls += 1
        return f_grad(x)

    prob.f_grad = counted
    res = leap_ssn(prob, x0=prob.solution + 2.0)
    assert res.status == "converged" and res.iterations > 1
    # every trial is computable on a convex quadratic, plus one call at x0
    assert calls == 1 + res.solves


def test_escalated_sparse_rungs_reuse_the_iterations_factor(counted,
                                                           monkeypatch):
    # an H that repeats keeps its operator and its kept factor, so a rung
    # is factored only when H changes, when a carried H is certified by
    # its own factor (once per H), or when PCG fails
    prob = plate_problem(65, 1e4)
    prob.metric.solver()        # the metric's own factorizations come first
    hessians, certificates = [], 0
    hess, splu = prob.hess, hilbert._symmetric_splu

    def recording_hess(x):
        hessians.append(hess(x))
        return hessians[-1]

    def classifying_splu(A):
        nonlocal certificates
        certificates += any(A is H for H in hessians)
        return splu(A)

    prob.hess = recording_hess
    monkeypatch.setattr(hilbert, "_symmetric_splu", classifying_splu)
    base = counted["splu"]
    res = leap_ssn(prob)
    assert res.status == "converged"
    assert res.solves > res.iterations
    changes = 1 + sum(not Operator(a).stores(b)
                      for a, b in zip(hessians, hessians[1:]))
    assert changes < res.iterations and 0 < certificates <= changes
    rung_factors = counted["splu"] - base
    assert rung_factors <= changes + certificates + counted["pcg_failed"]
    assert rung_factors < res.iterations


def test_a_changed_h_gets_a_fresh_operator(monkeypatch):
    # H is carried only when it repeats exactly: one entry moved by one ulp
    # on every evaluation makes every iteration wrap its own H
    made = []

    class Recorded(Operator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(driver, "Operator", Recorded)
    prob = quadratic()
    A = sp.csr_matrix(prob.hess(prob.x0))
    same = dataclasses.replace(prob, hess=lambda x: A.copy())
    res = leap_ssn(same, x0=prob.solution + 2.0)
    assert res.iterations > 2 and len(made) == 1

    calls = 0

    def nudged(x):
        nonlocal calls
        calls += 1
        B = A.copy()
        B.data[0] = np.nextafter(B.data[0], np.inf) if calls % 2 else A.data[0]
        return B

    made.clear()
    res = leap_ssn(dataclasses.replace(prob, hess=nudged),
                   x0=prob.solution + 2.0)
    assert res.iterations > 2 and len(made) == calls == res.iterations


def test_leap_ssn_holds_no_operator_after_it_returns(monkeypatch):
    # the carried H and its kept factor live only as long as the run
    refs = []

    class Recorded(Operator):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(driver, "Operator", Recorded)
    prob = plate_problem(17, 1e4)
    gc.disable()
    try:
        res = leap_ssn(prob)
        assert res.status == "converged"
        assert 0 < len(refs) < res.iterations      # some H was carried
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


TWINS = [(membrane_problem, 1e4)] + [(plate_problem, gamma)
                                     for gamma in (1e2, 1e3, 1e4, 1e5, 1e6)]


@pytest.mark.parametrize("family,gamma", TWINS,
                         ids=[f"{f.__name__}-{g:g}" for f, g in TWINS])
def test_sparse_and_dense_twins_take_the_same_ladder(family, gamma):
    # one problem, H given sparse or as its dense copy: the two certified
    # factorizations must accept and refuse the same rungs
    sparse = family(17, gamma)
    dense = dataclasses.replace(sparse,
                                hess=lambda x: sparse.hess(x).toarray())
    a, b = leap_ssn(sparse), leap_ssn(dense)
    assert (a.status, a.solves, a.iterations) == \
        (b.status, b.solves, b.iterations)
    assert abs(a.F - b.F) <= 1e-10 * abs(b.F)
