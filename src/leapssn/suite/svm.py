"""L2-regularised squared-hinge SVM, smooth and with an l1 term.

f(w, b) = 0.5 ||w||^2 + gamma * sum_i max(0, 1 - y_i (w.x_i + b))^2

The squared hinge is C^1 with a piecewise-linear gradient, so the
natural Newton derivative is the active-sample Gauss-Newton matrix.
The intercept is unregularised, matching the usual L2-SVM convention.
:func:`l1_svm_problem` adds psi(w, b) = mu ||w||_1, the paper's
machine-learning class, with the intercept again left free.

This is :func:`.penalty.penalised_quadratic` over v = (w, b) with
Q = diag(1, ..., 1, 0) as a sparse diagonal, q = 0, const = 0, the dense
rows K = -diag(y) [X 1], r = -1 and c = 2 gamma; that builder holds f,
f', H and f_decrease, and this module only the data.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from ..problem import Problem
from .penalty import penalised_quadratic
from .rng import SplitMix64

SEPARATION = 3.0    # distance between the two class means


def svm_data(n_samples: int, n_features: int, seed: int):
    """Two seeded Gaussian clouds at +/- SEPARATION/2 along the diagonal.

    Returns (X, y) with y in {+1.0, -1.0}.  The shift is scaled by
    1/sqrt(n_features) so the class distance is independent of dimension.
    """
    if not (n_samples >= 1 and n_features >= 1):
        raise ValueError(f"svm_data needs n_samples >= 1 and n_features >= 1, "
                         f"got {n_samples} and {n_features}")
    rng = SplitMix64(seed)
    y = rng.signs(n_samples)
    shift = 0.5 * SEPARATION / np.sqrt(n_features)
    X = rng.normals(n_samples * n_features).reshape(n_samples, n_features)
    X += (shift * y)[:, None]   # broadcast: no second l x n array
    return X, y


def svm_problem(X: np.ndarray, y: np.ndarray, gamma: float) -> Problem:
    """Build the squared-hinge problem over v = (w, b)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (l, n) with matching labels")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    l, n = X.shape
    dim = n + 1
    K = np.hstack([X, np.ones((l, 1))])
    K *= -y[:, None]        # in place: the rows -y_i (x_i, 1), one copy
    Q = sp.diags(np.r_[np.ones(n), 0.0])   # O(n) products in f and f'

    return penalised_quadratic(
        Q, np.zeros(dim), 0.0, K, np.full(l, -1.0), 2.0 * gamma,
        name="svm",
        x0=np.full(dim, 0.5),
        lambda0=3.0 * gamma * float(np.sqrt((X * X).sum())),
        sample_box=(np.full(dim, -2.0), np.full(dim, 2.0)),
    )


def l1_svm_problem(n_samples: int, n_features: int, seed: int,
                   mu: float) -> Problem:
    """The squared-hinge SVM at gamma = 1 on ``svm_data(n_samples,
    n_features, seed)`` plus psi(w, b) = mu ||w||_1.

    The prox soft-thresholds the weights and leaves the intercept free.
    ``psi_decrease`` sums mu (|x_i| - |y_i|) term by term: the
    subtraction psi(x) - psi(y) of two O(mu ||w||_1) values floors at
    their ulp, far above the decreases the acceptance test compares near
    convergence.
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    base = svm_problem(*svm_data(n_samples, n_features, seed), 1.0)
    n = n_features

    def psi_value(v):
        return mu * float(np.abs(v[:n]).sum())

    def psi_decrease(x, y):
        return mu * float((np.abs(x[:n]) - np.abs(y[:n])).sum())

    def prox(v, t):
        out = v.copy()
        out[:n] = np.sign(v[:n]) * np.maximum(0.0, np.abs(v[:n]) - t * mu)
        return out

    return dataclasses.replace(base, psi_value=psi_value, prox=prox,
                               psi_decrease=psi_decrease,
                               name=f"l1svm_mu{mu:g}")


def write_svm_data(path, X, y) -> None:
    """One sample per line: integer label, then the features.

    ``np.loadtxt(path)`` reads the file back bit for bit, with the labels
    in column 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            feats = " ".join(repr(float(v)) for v in X[i])
            fh.write(f"{int(y[i]):+d} {feats}\n")
