"""Composite minimisation problems ``F = f + psi``.

A :class:`Problem` bundles the smooth part ``f`` (value, gradient, and a
symmetric curvature operator ``H(x)``), an optional nonsmooth part ``psi``
given by its value and Euclidean proximal map, the SPD metric defining norms,
optional performance hooks (difference-form decreases of f and psi, and block
evaluations of H, f and f' that the verification harness runs its
samples through, in blocks that span base points), and optional
declarations (solution set, positive semidefinite curvature, PL modulus,
model-error bound, sampling region) that select the harness's checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .hilbert import Metric


@dataclass
class Problem:
    """Composite objective on R^dim.

    Required pieces: ``dim``, ``f_value``, ``f_grad``, ``hess`` and
    ``metric``.  ``hess(x)`` returns a symmetric operator as a dense ndarray
    or a scipy sparse matrix -- for nonsmooth-gradient problems it is a
    measurable selection of the generalized derivative.

    The nonsmooth part is either absent (``psi_value is None``; the problem
    is smooth) or given by ``psi_value`` together with ``prox``, where
    ``prox(v, t)`` evaluates the Euclidean proximal map of ``t * psi`` at
    ``v``.  Problems with a nontrivial ``psi`` must use the identity metric
    (the proximal subsolver works in the coordinate inner product).

    ``f_decrease(x, x_plus)`` optionally evaluates ``f(x) - f(x_plus)`` in
    difference form.  Near tight tolerances the naive subtraction of two
    O(1) objective values floors at ulp(F) while true decreases sit orders
    of magnitude lower; problems whose structure allows exact cancellation
    (quadratics plus clipped penalties) should supply this.

    ``psi_decrease(x, x_plus)`` optionally evaluates ``psi(x) -
    psi(x_plus)`` in difference form, for the same reason: a separable
    ``psi`` such as ``mu ||w||_1`` can sum its termwise differences, where
    the subtraction of two O(psi) values floors at ulp(psi).  Without it
    the decrease subtracts the two values.

    ``hess_apply(X, V)`` optionally evaluates, for dim x k blocks ``X``
    of base points and ``V`` of directions, the dim x k block whose
    column j is ``hess(X[:, j]) @ V[:, j]``, without forming any
    ``hess``, with the same selection of the generalized derivative as
    ``hess``.  Directions that share a base point pass it once per
    column.  Like ``f_decrease`` it is a performance hook, which the
    solver never calls: the verification harness applies it to each block
    of directions, whatever their base points, where it would otherwise
    form ``hess(x)`` for each direction.  Every penalised quadratic has
    it, with dense or sparse rows.  ``verify.hess_symmetry_check``
    compares it with ``hess``.

    ``f_values(X)`` optionally evaluates f at each column of a dim x k
    block ``X``, returning the k values.  It is an audit-only performance
    hook too: the verification harness evaluates its blocks of points
    through it (up to 50 columns on a problem with it, else 8), and
    ``verify.grad_check`` compares it with ``f_value``.  It need not round
    as ``f_value`` does, so the solver never calls it.

    ``project_solution(x)`` optionally declares the solution set: it
    returns the set's point nearest to ``x`` (a constant map for a unique
    minimiser).  The audit's x* projects the final iterate; F* is F(x*).

    ``model_error_bound(metric)`` optionally declares the model-error
    constant L of the convergence theory: a certified bound on
    ``||f'(y) - f'(x) - H(x)(y - x)||_* / ||y - x||`` over all x and y in
    the norms of ``metric`` (the problem's own).  Every penalised quadratic
    has it (``suite.penalty``), computed on first call and cached, and so
    does ``rank_deficient_ls``, whose model error is 0.  The
    audit takes L from it and checks every iterate pair of the run
    against it; a problem without it gets L from
    ``verify.assumption2_sample``'s random sample, which can only
    undershoot the supremum.
    """

    dim: int
    f_value: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], object]
    metric: Metric = field(default_factory=Metric)
    psi_value: Optional[Callable[[np.ndarray], float]] = None
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    name: str = ""

    # optional structure/performance hooks
    f_decrease: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    psi_decrease: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    hess_apply: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    f_values: Optional[Callable[[np.ndarray], np.ndarray]] = None
    x0: Optional[np.ndarray] = None
    lambda0: Optional[float] = None   # preferred solver constants, used
    alpha: Optional[float] = None     # when the caller sets none

    # optional declarations consumed by the verification harness
    hess_psd: bool = False          # every H(x) is positive semidefinite
    # PL modulus μ in ½‖F′‖²_* ≥ μ(F − F*)
    strong_convexity: Optional[float] = None
    project_solution: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sample_box: Optional[tuple] = None          # (lo, hi) arrays for sampling
    model_error_bound: Optional[Callable[[Metric], float]] = None

    def __post_init__(self):
        if self.psi_value is not None and self.prox is None:
            raise ValueError("composite problems need a prox for psi")
        if self.psi_value is not None and self.metric.kind != "identity":
            raise ValueError("composite problems require the identity metric")

    @property
    def smooth(self) -> bool:
        return self.psi_value is None

    def psi(self, x) -> float:
        return 0.0 if self.psi_value is None else float(self.psi_value(x))

    def value(self, x) -> float:
        """Full objective F(x) = f(x) + psi(x)."""
        return float(self.f_value(x)) + self.psi(x)

    def decrease(self, x, x_plus) -> float:
        """F(x) - F(x_plus): ``f_decrease(x, x_plus)`` when the problem has
        it, else ``f(x) - f(x_plus)``, plus, when the problem is
        composite, ``psi_decrease(x, x_plus)`` when it has that, else
        ``psi(x) - psi(x_plus)``."""
        if self.f_decrease is not None:
            df = float(self.f_decrease(x, x_plus))
        else:
            df = float(self.f_value(x)) - float(self.f_value(x_plus))
        if self.smooth:
            return df
        if self.psi_decrease is not None:
            return df + float(self.psi_decrease(x, x_plus))
        return df + self.psi(x) - self.psi(x_plus)

    def start_point(self, x0=None) -> np.ndarray:
        if x0 is not None:
            return np.asarray(x0, dtype=float).copy()
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float).copy()
        return np.zeros(self.dim)
