"""Problem container invariants: validation, F assembly, prox certificates."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from leapssn import Metric, Problem, backtracking_newton, leap_ssn, plain_newton
from leapssn.suite import SplitMix64, partial_smooth_2d, quadratic


def _soft0(v, t):
    # prox of t*|x_0|
    out = v.copy()
    out[0] = np.sign(v[0]) * max(abs(v[0]) - t, 0.0)
    return out


def test_composite_requires_prox():
    with pytest.raises(ValueError):
        Problem(dim=2,
                f_value=lambda x: 0.5 * float(x @ x),
                f_grad=lambda x: x,
                hess=lambda x: np.eye(2),
                metric=Metric(),
                psi_value=lambda x: abs(x[0]))


def test_a_composite_problem_takes_any_metric():
    """The composite step minimises the model in the problem's metric, so
    a composite problem need not use the identity."""
    R = Metric(np.diag([2.0, 1.0]))
    prob = Problem(dim=2,
                   f_value=lambda x: 0.5 * float(x @ x),
                   f_grad=lambda x: x,
                   hess=lambda x: np.eye(2),
                   metric=R,
                   psi_value=lambda x: abs(x[0]),
                   prox=_soft0)
    assert prob.metric is R and not prob.smooth


@pytest.mark.parametrize("solver", [leap_ssn, plain_newton,
                                    backtracking_newton])
@pytest.mark.parametrize("shape", [(3,), (8, 1), ()],
                         ids=["3", "8x1", "scalar"])
def test_a_start_of_the_wrong_shape_is_refused(solver, shape):
    """Every solver refuses a start point that is not of shape (dim,),
    naming both shapes."""
    prob = quadratic()
    assert prob.dim == 8
    with pytest.raises(ValueError, match=re.escape(f"{shape}, the problem "
                                                   "needs (8,)")):
        solver(prob, x0=np.zeros(shape))


@pytest.mark.parametrize("R", [sp.identity(4, format="csr"), np.eye(2)])
def test_a_metric_of_the_wrong_shape_is_refused(R):
    with pytest.raises(ValueError, match=re.escape(
            f"{R.shape}, the problem needs (3, 3)")):
        Problem(dim=3, f_value=lambda x: 0.0, f_grad=lambda x: x,
                hess=lambda x: np.eye(3), metric=Metric(R))


def test_smooth_flag_and_objective_assembly():
    q = quadratic()
    assert q.smooth
    x = q.x0 + 1.0
    assert q.value(x) == pytest.approx(q.f_value(x))

    p = partial_smooth_2d()
    assert not p.smooth
    x = np.array([1.0, 0.0])
    assert p.value(x) == pytest.approx(3.0)     # 1 + 0 + max(0,1)^2 + |1|
    assert p.psi(x) == 1.0


def test_decrease_equals_objective_difference():
    p = partial_smooth_2d()
    x = np.array([0.7, -1.2])
    y = np.array([0.1, 0.3])
    assert p.decrease(x, y) == pytest.approx(p.value(x) - p.value(y), abs=1e-14)


def test_decrease_prefers_difference_oracle_when_given():
    prob = Problem(dim=1,
                   f_value=lambda x: float(x[0] ** 2),
                   f_grad=lambda x: 2.0 * x,
                   hess=lambda x: 2.0 * np.eye(1),
                   metric=Metric(),
                   f_decrease=lambda x, y: 7.0)
    assert prob.decrease(np.array([1.0]), np.array([0.0])) == 7.0


def test_prox_subgradient_certificate():
    """(v - prox(v, t))/t must be a subgradient of psi at the prox point."""
    p = partial_smooth_2d()
    rng = SplitMix64(0xC0FFEE)
    ys = rng.normals(40).reshape(20, 2) * 2.0
    for trial in range(50):
        v = rng.normals(2) * 3.0
        t = float(rng.uniforms(1)[0]) * 2.0 + 1e-3
        px = p.prox(v, t)
        g = (v - px) / t
        base = p.psi(px)
        for y in ys:
            assert p.psi(y) >= base + g @ (y - px) - 1e-9
