"""Named problem builders for the command-line front end.

Each entry maps a CLI problem name to a builder taking the generic
knobs (``gamma``, ``n``, ``seed``) and returning a fully-declared
Problem, the defaults of the knobs that builder reads, and the gradient
tolerance the problem is conventionally run at (hinge losses are
usually driven to 1e-6, everything else to 1e-8).  Every command-line
subcommand, and the benchmark's ``DEFAULT_SEEDS``, takes its defaults
from this one table.

``broken_gradient`` is a deliberate negative control: its reported
gradient carries a constant bias, so derivative checks must flag it
while the solver itself still terminates (at the minimiser of the
consistent, silently shifted objective).
"""

from __future__ import annotations

import numpy as np

from ..problem import Problem
from .academic import partial_smooth_2d, quadratic, rank_deficient_ls, rosenbrock
from .imaging import add_noise, phantom
from .obstacle import membrane_problem, plate_problem
from .svm import svm_data, svm_problem
from .tv import tv_dual_problem

SVM_SAMPLES = 1000
TV_SIGMA = 0.06


def broken_gradient_problem() -> Problem:
    """Quadratic whose reported gradient has a constant bias (test fixture)."""
    bias = np.array([1e-3, 0.0])

    def f_value(x):
        return 0.5 * float(x @ x)

    def f_grad(x):
        return x + bias

    return Problem(
        dim=2,
        f_value=f_value,
        f_grad=f_grad,
        hess=lambda x: np.eye(2),
        hess_psd=True,
        name="broken_gradient",
        x0=np.array([1.0, 1.0]),
        sample_box=(np.full(2, -2.0), np.full(2, 2.0)),
    )


def _build_tv(gamma, n, seed):
    noisy = add_noise(phantom(n), TV_SIGMA, seed)
    prob = tv_dual_problem(noisy, gamma)
    prob.noisy_image = noisy
    return prob


# name: (builder(gamma, n, seed), defaults of the knobs it reads, tolerance)
_REGISTRY = {
    "quadratic": (lambda gamma, n, seed: quadratic(n=n, seed=seed),
                  {"n": 8, "seed": 3}, 1e-8),
    "rosenbrock": (lambda gamma, n, seed: rosenbrock(n=n), {"n": 10}, 1e-8),
    "rank_deficient": (lambda gamma, n, seed: rank_deficient_ls(
        n=n, rank=min(12, n), seed=seed), {"n": 20, "seed": 0}, 1e-8),
    "partial_smooth": (lambda gamma, n, seed: partial_smooth_2d(), {}, 1e-8),
    "svm": (lambda gamma, n, seed: svm_problem(
        *svm_data(SVM_SAMPLES, n, seed), gamma),
        {"gamma": 1.0, "n": 2, "seed": 1}, 1e-6),
    "membrane": (lambda gamma, n, seed: membrane_problem(n=n, gamma=gamma),
                 {"gamma": 1e4, "n": 65}, 1e-8),
    "plate": (lambda gamma, n, seed: plate_problem(n=n, gamma=gamma),
              {"gamma": 1e4, "n": 65}, 1e-8),
    "tv": (_build_tv, {"gamma": 1e4, "n": 64, "seed": 5}, 1e-8),
    "broken_gradient": (lambda gamma, n, seed: broken_gradient_problem(),
                        {}, 1e-8),
}

PROBLEM_NAMES = tuple(sorted(_REGISTRY))
DEFAULT_SEEDS = {name: defaults["seed"]
                 for name, (_, defaults, _) in _REGISTRY.items()
                 if "seed" in defaults}


def _entry(name: str):
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    return _REGISTRY[name]


def problem_knobs(name: str, gamma=None, n=None, seed=None) -> dict:
    """``gamma``, ``n`` and ``seed`` as the named problem is built with them.

    A knob left None takes the problem's default; a knob the problem does
    not read is None.
    """
    defaults = _entry(name)[1]
    knobs = dict.fromkeys(("gamma", "n", "seed"))
    for key, value in (("gamma", gamma), ("n", n), ("seed", seed)):
        if key in defaults:
            knobs[key] = defaults[key] if value is None else value
    return knobs


def build_problem(name: str, gamma=None, n=None, seed=None) -> Problem:
    """Build the named problem; raises KeyError on unknown names."""
    return _entry(name)[0](**problem_knobs(name, gamma, n, seed))


def default_tol(name: str) -> float:
    return _entry(name)[2]
