"""Obstacle problems: penalised membrane and bending-plate contact.

Both minimise an elliptic quadratic energy plus a one-sided quadratic
penalty that activates where the surface dips below an obstacle:

    f(u) = 0.5 <Au, u> - <b, u> + (c/2) sum_i max(0, phi_i - u_i)^2

with c = gamma * h^2.  The generalized second derivative is
``A + c * diag(chi)`` with the active set ``chi = [phi - u >= 0]``
(boundary case included).  Both are :func:`.penalty.penalised_quadratic`
with (Q, q, const, K, r, c) = (A, -b, 0, -I, -phi, c); that builder holds
f, f', H and f_decrease, and this module only the meshes and obstacles.
A and R do not depend on gamma: the live problems on one mesh share them.

The *membrane* uses the Dirichlet 5-point Laplacian on the interior nodes
of the unit square and the energy metric R = A.  Its clamped systems are
irreducibly diagonally dominant M-matrices for every gamma, so undamped
Newton is unconditionally safe on it -- useful as a well-behaved instance,
useless for stressing solvers.

The *plate* uses the fourth-order bending energy of a freely resting
plate (no kinematic boundary conditions; rigid motions {1, x, y} span the
kernel of A) pressed onto a narrow stepped punch.  At large gamma the
contact set collapses onto the punch plateau, a single grid column, and
the clamped system turns exactly singular: the cross-tilt rigid motion
vanishes on the active column.  Undamped Newton dies there while
regularised methods keep working, which is the failure pattern this
instance exists to exhibit.  Metric R = A + h^2 I (SPD on the rigid
modes).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..problem import Problem
from .penalty import penalised_quadratic, shared, shared_metric


def _contact_problem(A, b, c, phi, name, metric, **extra):
    """The Problem for f = 0.5<Au,u> - <b,u> + c/2 ||max(0, phi - u)||^2."""
    dim = phi.size
    prob = penalised_quadratic(
        A, -b, 0.0, -sp.identity(dim, format="csr"), -phi, c,
        metric=metric,
        name=name,
        x0=np.zeros(dim),
        sample_box=(phi - 0.5, phi + 0.5),
        **extra,
    )
    prob.obstacle = phi       # contact diagnostics: violation = max(0, phi - u)
    return prob


def laplacian_2d(m: int) -> sp.csr_matrix:
    """Dirichlet 5-point Laplacian stencil (4 / -1) on an m x m grid."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(eye, T) + sp.kron(T, eye)).tocsr()


def membrane_problem(n: int = 65, gamma: float = 1e4) -> Problem:
    """Penalised membrane contact on the interior (n-2)^2 grid.

    The obstacle is a paraboloid bump peaking at 0.25 in the centre and
    the load a uniform downward -10.  gamma = 0 is allowed and reduces
    the problem to the linear Poisson equation.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    m = n - 2
    h = 1.0 / (n - 1)
    xs = np.arange(1, n - 1) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")

    phi = (0.25 - ((X - 0.5) ** 2 + (Y - 0.5) ** 2)).ravel()

    A = shared("membrane", n, "A", lambda: laplacian_2d(m))
    b = (h * h) * np.full(m * m, -10.0)
    c = gamma * h * h

    return _contact_problem(
        A, b, c, phi, "membrane", shared_metric("membrane", n, lambda: A),
        strong_convexity=1.0,                       # R = A: energy norm
    )


def plate_bending_operator(n: int, h: float) -> sp.csr_matrix:
    """A = h^2 (Dxx'Dxx + 2 Dxy'Dxy + Dyy'Dyy) on the full n x n grid.

    Free-boundary second differences; the kernel is exactly the rigid
    motions span{1, x, y}.
    """
    eye = sp.identity(n)
    S = sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n)) / (h * h)
    P = sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n)) / h
    Dxx = sp.kron(S, eye)
    Dyy = sp.kron(eye, S)
    Dxy = sp.kron(P, P)
    A = (h * h) * (Dxx.T @ Dxx + 2.0 * (Dxy.T @ Dxy) + Dyy.T @ Dyy)
    return A.tocsr()


def punch_obstacle(n: int) -> np.ndarray:
    """Stepped punch: one plateau column at 0.30 flanked by two terrace
    columns 0.06 lower, everything else at -0.5.

    The plateau sits just off-centre so the punch column never aligns with
    a symmetry axis of the grid.
    """
    ic = int(round((n - 1) * 17 / 32))
    top, step = 0.30, 0.06
    phi = np.full((n, n), -0.5)
    phi[ic - 1, :] = top - step
    phi[ic + 1, :] = top - step
    phi[ic, :] = top
    return phi.ravel()


def plate_problem(n: int = 65, gamma: float = 1e4) -> Problem:
    """Freely resting plate pressed onto a stepped punch by a uniform
    load of -12.

    Small gamma lets the plate penetrate down to the terraces and floor
    (wide, well-spread contact set); large gamma confines contact to the
    plateau column, whose clamped system loses the cross-tilt rigid mode
    and becomes singular.
    """
    if n < 5:
        raise ValueError("n must be at least 5")
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    h = 1.0 / (n - 1)
    phi = punch_obstacle(n)

    A = shared("plate", n, "A", lambda: plate_bending_operator(n, h))
    metric = shared_metric(
        "plate", n, lambda: (A + (h * h) * sp.identity(n * n)).tocsr())
    b = (h * h) * np.full(n * n, -12.0)
    c = gamma * h * h

    return _contact_problem(A, b, c, phi, "plate", metric)
