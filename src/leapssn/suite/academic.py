"""Small hand-checkable problems used for auditing and unit tests.

Each builder returns a fully-declared :class:`~leapssn.problem.Problem`:
solution-set projectors and growth moduli are attached so the trace
auditor can test every envelope it knows about.  ``partial_smooth_2d`` and
``quadratic`` are penalised quadratics built by
:func:`~leapssn.suite.penalty.penalised_quadratic` (``quadratic`` with no
penalty rows); ``rank_deficient_ls`` and ``rosenbrock`` write their
derivatives out by hand.
"""

from __future__ import annotations

import numpy as np

from ..problem import Problem
from .penalty import penalised_quadratic
from .rng import SplitMix64


def partial_smooth_2d() -> Problem:
    """min  x0^2 + x1^2 + max(0, x0)^2 + |x0|  over R^2.

    The unique minimiser is the origin, where the smooth part is twice
    differentiable on each side of {x0 = 0} but the Hessian jumps.  The
    smooth part is the penalised quadratic with Q = 2I, K = [1 0], r = 0
    and c = 2.  The |x0| term makes it a genuine composite instance with
    a prox that is soft-thresholding in the first coordinate only.
    """

    def psi_value(x):
        return float(abs(x[0]))

    def prox(v, t):
        out = v.copy()
        out[0] = np.sign(v[0]) * max(0.0, abs(v[0]) - t)
        return out

    def near_kink(rng: SplitMix64) -> np.ndarray:
        z = rng.normals(2)
        return np.array([1e-9 * z[0], z[1]])

    return penalised_quadratic(
        2.0 * np.eye(2), np.zeros(2), 0.0, np.array([[1.0, 0.0]]),
        np.zeros(1), 2.0,
        psi_value=psi_value,
        prox=prox,
        name="partial_smooth_2d",
        x0=np.array([1.0, 1.0]),
        f_star=0.0,
        strong_convexity=2.0,
        project_solution=lambda x: np.zeros(2),
        sample_box=(np.full(2, -2.0), np.full(2, 2.0)),
        near_kink=near_kink,
    )


def rank_deficient_ls(n: int = 20, rank: int = 12, seed: int = 0) -> Problem:
    """Least squares with a deliberately rank-deficient design matrix.

    f(x) = 0.5 ||B (x - xbar)||^2 with rank(B) = ``rank`` < n.  The
    solution set is the affine subspace xbar + null(B); the problem has
    no strong convexity, but satisfies a gradient-growth inequality
    whose modulus is the smallest positive eigenvalue of B^T B.
    """
    if not 1 <= rank <= n:
        raise ValueError("rank must lie in [1, n]")
    rng = SplitMix64(0x5EED0000 + seed)
    C = rng.normals(n * rank).reshape(n, rank)
    D = rng.normals(rank * n).reshape(rank, n)
    B = (C @ D) / np.sqrt(n)
    xbar = rng.normals(n)
    Q = B.T @ B

    evals, evecs = np.linalg.eigh(Q)
    pos = evals > 1e-10 * evals.max()
    mu = float(evals[pos].min())
    null_basis = evecs[:, ~pos]  # columns span null(B)

    def f_value(x):
        r = B @ (x - xbar)
        return 0.5 * float(r @ r)

    def f_grad(x):
        return Q @ (x - xbar)

    def hess(x):
        return Q

    def f_decrease(x, y):
        u = B @ (x - xbar)
        v = B @ (y - xbar)
        return 0.5 * float((u - v) @ (u + v))

    def project_solution(x):
        # nearest point of xbar + null(B)
        d = x - xbar
        return xbar + null_basis @ (null_basis.T @ d)

    return Problem(
        dim=n,
        f_value=f_value,
        f_grad=f_grad,
        hess=hess,
        f_decrease=f_decrease,
        hess_psd=True,
        name="rank_deficient_ls",
        x0=np.zeros(n),
        f_star=0.0,
        strong_convexity=mu,
        project_solution=project_solution,
        sample_box=(xbar - 2.0, xbar + 2.0),
    )


def rosenbrock(n: int = 10) -> Problem:
    """Sum of decoupled two-dimensional Rosenbrock valleys.

    Pairs (x_{2i}, x_{2i+1}) each contribute
    100 (x_{2i+1} - x_{2i}^2)^2 + (1 - x_{2i})^2, so the Hessian is
    block diagonal and indefinite away from the valley floor.  Smooth,
    nonconvex, minimiser at the all-ones vector.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")

    def f_value(x):
        a = x[0::2]
        b = x[1::2]
        return float(np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2))

    def f_grad(x):
        a = x[0::2]
        b = x[1::2]
        g = np.empty_like(x)
        g[0::2] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
        g[1::2] = 200.0 * (b - a * a)
        return g

    def hess(x):
        H = np.zeros((n, n))
        for i in range(0, n, 2):
            a, b = x[i], x[i + 1]
            H[i, i] = 1200.0 * a * a - 400.0 * b + 2.0
            H[i, i + 1] = H[i + 1, i] = -400.0 * a
            H[i + 1, i + 1] = 200.0
        return H

    return Problem(
        dim=n,
        f_value=f_value,
        f_grad=f_grad,
        hess=hess,
        name="rosenbrock",
        x0=np.zeros(n),
        f_star=0.0,
        project_solution=lambda x: np.ones(n),
        sample_box=(np.full(n, -2.0), np.full(n, 2.0)),
    )


def quadratic(n: int = 8, seed: int = 3) -> Problem:
    """Strongly convex quadratic with spectrum spread over [1, 10]."""
    if n < 1:
        raise ValueError(f"quadratic needs n >= 1, got {n}")
    mu, L = 1.0, 10.0
    rng = SplitMix64(0xACAD0000 + seed)
    G = rng.normals(n * n).reshape(n, n)
    Qo, _ = np.linalg.qr(G)
    evals = np.geomspace(mu, L, n)
    A = (Qo * evals) @ Qo.T
    A = 0.5 * (A + A.T)
    xstar = rng.normals(n)
    b = A @ xstar
    return penalised_quadratic(
        A, -b, 0.5 * float(xstar @ b), np.zeros((0, n)), np.zeros(0), 0.0,
        name="quadratic",
        x0=np.zeros(n),
        f_star=0.0,
        strong_convexity=mu,
        project_solution=lambda x: xstar,
        sample_box=(xstar - 2.0, xstar + 2.0),
    )
