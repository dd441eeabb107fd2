"""Workload definitions: fixed job lists over the leapssn problem suite.

A *job* builds one problem instance, solves it with one solver, and (for
``leap_ssn``) audits the trace the way ``leapssn verify`` does.  Seeded
instances draw their data seed from the suite's ``DEFAULT_SEEDS`` plus the
benchmark's seed offset, so offset 0 reproduces the suite's own numbers.
Instances marked ``seeded=False`` are pinned: either they have no random
data (plate, membrane, the 2-D composite toy), or they are tracked cells
kept at the suite seed on purpose (see README.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from leapssn.suite import (add_noise, membrane_problem, partial_smooth_2d,
                           phantom, plate_problem, svm_data, svm_problem,
                           tv_dual_problem)
from leapssn.suite.registry import DEFAULT_SEEDS, TV_SIGMA

#: Seeds repeat their inputs with this period; references.json holds one
#: reference objective per seeded instance and offset below it.
SEED_PERIOD = 32

CONVERGED_ONLY = ("converged",)
TRACKED_CELL = ("converged", "solve_budget")
TV_CONSTANTS = {"alpha": 1e-4, "beta": 1e-4}   # tv_denoise's constants


@dataclass(frozen=True)
class Job:
    """One solve of one instance.

    ``build(data_seed)`` returns the Problem; ``family`` names the suite
    seed it is offset from (None for instances without random data).
    ``instance`` identifies the problem for the reference table, so two
    solvers on the same instance share one reference objective.
    """
    name: str
    instance: str
    build: Callable[[int], object]
    solver: str                       # "leap_ssn" | "backtracking_newton"
    tol: float
    options: dict = field(default_factory=dict)
    family: str | None = None
    seeded: bool = False
    allowed: tuple = CONVERGED_ONLY   # statuses that pass the check

    def data_seed(self, offset: int):
        if self.family is None:
            return None
        return DEFAULT_SEEDS[self.family] + (offset if self.seeded else 0)

    def reference_key(self, offset: int) -> str:
        seed = self.data_seed(offset)
        return self.instance if seed is None else f"{self.instance}@s{seed}"


def l1_svm_problem(n_samples: int, n_features: int, seed: int, mu: float):
    """Squared-hinge SVM (gamma = 1) plus mu * ||w||_1 on the weights.

    Assembled from public pieces: the suite's smooth SVM with a
    soft-threshold prox that leaves the intercept untouched.
    """
    X, y = svm_data(n_samples, n_features, seed)
    base = svm_problem(X, y, 1.0)
    n = n_features

    def psi_value(v):
        return mu * float(np.abs(v[:n]).sum())

    def prox(v, t):
        out = v.copy()
        out[:n] = np.sign(v[:n]) * np.maximum(0.0, np.abs(v[:n]) - t * mu)
        return out

    return dataclasses.replace(base, psi_value=psi_value, prox=prox,
                               name=f"l1svm_mu{mu:g}")


def _plate(gamma):
    return lambda seed: plate_problem(65, gamma)


def _tv(seed):
    return tv_dual_problem(add_noise(phantom(64), TV_SIGMA, seed), 1e4)


def _svm(n_samples, gamma):
    return lambda seed: svm_problem(*svm_data(n_samples, 200, seed), gamma)


def _l1_svm(mu):
    return lambda seed: l1_svm_problem(2000, 200, seed, mu)


def _membrane(seed):
    return membrane_problem(65, 1e4)


def _partial_smooth(seed):
    return partial_smooth_2d()


# The 2-D composite toy rides along on every workload so that every layer
# (prox, psi, composite_step, manifold_check) is exercised everywhere and
# no per-layer time is a constant zero.
PARTIAL_SMOOTH = Job("partial_smooth_2d", "partial_smooth_2d",
                     _partial_smooth, "leap_ssn", 1e-8)
MEMBRANE = Job("membrane65_g1e4", "membrane65_g1e4", _membrane, "leap_ssn",
               1e-8)

SPARSE_CONTACT = [
    *[Job(f"plate65_g{g}", f"plate65_g{g}", _plate(float(g)), "leap_ssn",
          1e-8, {"max_solves": 300})
      for g in ("1e2", "1e3", "1e4", "1e5", "1e6")],
    MEMBRANE,
    Job("membrane65_g1e4_armijo", "membrane65_g1e4", _membrane,
        "backtracking_newton", 1e-8),
    Job("tv64_g1e4", "tv64_g1e4", _tv, "leap_ssn", 1e-8,
        {"max_solves": 300, **TV_CONSTANTS}, family="tv", seeded=True),
    PARTIAL_SMOOTH,
]

SVM_DENSE = [
    Job("svm1e4_g1e3", "svm1e4_g1e3", _svm(10_000, 1e3), "leap_ssn", 1e-6,
        family="svm", seeded=True),
    # The hard cell, pinned at the suite seed: leap_ssn stalls near
    # lambda = 1e3 and runs out its 300-solve cap, while Armijo
    # backtracking converges on the same instance (its solve count varies
    # 147-432 across data seeds 1-32 at gamma = 1e3).
    *[Job(f"svm_hard_g{g}_{tag}", f"svm1e3_g{g}", _svm(1000, float(g)),
          solver, 1e-6, opts, family="svm", allowed=allowed)
      for g in ("1e2", "1e3")
      for tag, solver, opts, allowed in (
          ("leap", "leap_ssn", {"max_solves": 300}, TRACKED_CELL),
          ("armijo", "backtracking_newton", {}, CONVERGED_ONLY))],
    PARTIAL_SMOOTH,
]

COMPOSITE_L1 = [
    # The l1 instances are pinned at the suite seed: across data seeds 1-32
    # rungs that hit INNER_MAXIT make their inner-iteration counts vary 3x,
    # and mu = 10 ends inner_budget on seeds 15 and 25.
    *[Job(f"l1svm2000_mu{mu:g}", f"l1svm2000_mu{mu:g}", _l1_svm(mu),
          "leap_ssn", 1e-6, family="svm")
      for mu in (1.0, 10.0)],
    # the smooth base problem on the same data (psi = 0) is the control
    Job("svm2000_g1", "svm2000_g1", _svm(2000, 1.0), "leap_ssn", 1e-6,
        family="svm", seeded=True),
    Job("svm2000_g1_armijo", "svm2000_g1", _svm(2000, 1.0),
        "backtracking_newton", 1e-6, family="svm", seeded=True),
    PARTIAL_SMOOTH,
]

#: Short list for the determinism test: one job per solver path.
SMOKE = [
    MEMBRANE,
    Job("svm300_g1e3_armijo", "svm300_g1e3",
        lambda seed: svm_problem(*svm_data(300, 20, seed), 1e3),
        "backtracking_newton", 1e-6, family="svm"),
    Job("l1svm300_mu1", "l1svm300_mu1",
        lambda seed: l1_svm_problem(300, 20, seed, 1.0), "leap_ssn", 1e-6,
        family="svm"),
    PARTIAL_SMOOTH,
]

WORKLOADS = {
    "sparse_contact": SPARSE_CONTACT,
    "svm_dense": SVM_DENSE,
    "composite_l1": COMPOSITE_L1,
    "smoke": SMOKE,
}
