"""L2-regularised squared-hinge SVM as a smooth composite problem.

f(w, b) = 0.5 ||w||^2 + gamma * sum_i max(0, 1 - y_i (w.x_i + b))^2

The squared hinge is C^1 with a piecewise-linear gradient, so the
natural Newton derivative is the active-sample Gauss-Newton matrix.
The intercept is unregularised, matching the usual L2-SVM convention.

This is :func:`.penalty.penalised_quadratic` over v = (w, b) with
Q = diag(1, ..., 1, 0), q = 0, const = 0, the dense rows K = -diag(y) [X 1],
r = -1 and c = 2 gamma; that builder holds f, f', H and f_decrease, and
this module only the data.
"""

from __future__ import annotations

import numpy as np

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
    X += np.outer(y, np.full(n_features, shift))
    return X, y


def svm_problem(X: np.ndarray, y: np.ndarray, gamma: float) -> Problem:
    """Build the squared-hinge problem over v = (w, b)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (l, n) with matching labels")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    l, n = X.shape
    dim = n + 1
    K = np.hstack([X, np.ones((l, 1))])
    K *= -y[:, None]        # in place: the rows -y_i (x_i, 1), one copy
    Q = np.diag(np.r_[np.ones(n), 0.0])

    def near_kink(rng: SplitMix64) -> np.ndarray:
        v = rng.normals(dim) / np.sqrt(dim)
        m0 = 1.0 + K[0] @ v
        v[n] += (m0 - 1e-9) * y[0]  # place sample 0 on the hinge edge
        return v

    return penalised_quadratic(
        Q, np.zeros(dim), 0.0, K, np.full(l, -1.0), 2.0 * gamma,
        name="svm",
        x0=np.full(dim, 0.5),
        lambda0=3.0 * gamma * float(np.sqrt((X * X).sum())),
        sample_box=(np.full(dim, -2.0), np.full(dim, 2.0)),
        near_kink=near_kink,
    )


def write_svm_data(path, X, y) -> None:
    """One sample per line: integer label, then the features."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            feats = " ".join(repr(float(v)) for v in X[i])
            fh.write(f"{int(y[i]):+d} {feats}\n")


def read_svm_data(path):
    """Inverse of :func:`write_svm_data`; returns (X, y)."""
    rows = []
    labels = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            labels.append(float(int(parts[0])))
            rows.append([float(tok) for tok in parts[1:]])
    if len({len(r) for r in rows}) > 1:
        raise ValueError("inconsistent feature counts")
    return np.array(rows, dtype=float), np.array(labels, dtype=float)
