"""Dual-variable image denoising with a penalised flux box.

The unknown is a flux field q on the interior cell faces of an n x n
image (zero normal flux on the boundary).  The restored image is

    u = omega + div(q),    div = DIV_SCALE * B,

with B the +/-1 face-to-cell incidence, and q solves the smooth problem

    f(q) = 1/2 ||div(q) + omega||^2_{L2}
         + gamma/2 (||max(0, q - delta)||^2 + ||min(0, q + delta)||^2)
         + eps ||G q||^2

where the data term carries the cell measure h^2 and G takes unscaled
differences of neighbouring face values (a broken discrete-gradient
smoother).  The penalty confines each flux component to [-delta, delta];
gamma controls how hard the box is enforced.  The Newton derivative adds
gamma times the diagonal active-box indicator; the metric is the SPD
flux-space operator div'div + eps G'G + 1e-8 I.  It depends on n only, as
do B and the smooth Hessian: the live instances on one mesh share all
three (:func:`.penalty.shared`), and a fresh build assembles each once.

This is :func:`.penalty.penalised_quadratic` with Q = div'div + 2 eps G'G
(cell measure included), q = h^2 div'omega, const = h^2/2 ||omega||^2,
K = [I; -I], r = (delta, delta) and c = gamma; that builder holds f, f',
H and f_decrease, and this module only the operators and the image.

DIV_SCALE compensates the coarse grid: the box radius delta is a
per-face flux budget, so the correction capacity of the dual field
scales with the divergence coupling.  At 64 x 64, a scale of 200
(about 3/h) restores the capacity that the same delta affords on the
fine grids this construction is usually run at; with the plain 1/h
scaling the box saturates before the noise is removed.

The box radius delta is ``DELTA`` and the smoother weight eps is
``EPS``; every instance uses them, so gamma is the one model knob.

The canonical starting point is q0 = -delta * sign(B' omega): flux
opposing the measured image gradient, saturated to the box.  For a
constant image this is exactly zero, which is already stationary.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from ..problem import Problem
from .imaging import GridImage
from .penalty import penalised_quadratic, shared, shared_metric

C0 = 1e-8          # SPD safeguard on the metric (flux constants are G-null)
DIV_SCALE = 200.0  # flux-to-image coupling of the divergence (see module docstring)
DELTA = 1e-4       # box radius: the per-face flux budget
EPS = 1e-1         # weight of the face smoother G


def _face_incidence(n: int) -> sp.csr_matrix:
    """B: (n^2, 2n(n-1)) signed incidence of interior faces to cells."""
    P = sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))
    eye = sp.identity(n)
    B1 = sp.kron(-P.T, eye)      # vertical faces: cell (i,j) <- q1[i,j]-q1[i-1,j]
    B2 = sp.kron(eye, -P.T)      # horizontal faces
    return sp.hstack([B1, B2]).tocsr()


def _face_gradient(n: int) -> sp.csr_matrix:
    """G: unscaled neighbour differences within each face sub-grid."""
    def grid_diffs(a, b):
        Pa = sp.diags([-1.0, 1.0], [0, 1], shape=(a - 1, a))
        Pb = sp.diags([-1.0, 1.0], [0, 1], shape=(b - 1, b))
        return sp.vstack([sp.kron(Pa, sp.identity(b)),
                          sp.kron(sp.identity(a), Pb)])
    G1 = grid_diffs(n - 1, n)
    G2 = grid_diffs(n, n - 1)
    return sp.block_diag([G1, G2]).tocsr()


def tv_dual_problem(omega, gamma: float) -> Problem:
    """Build the flux-box problem for a noisy image ``omega``.

    The returned problem has an extra ``reconstruct(q) -> GridImage``
    attribute giving the restored image for a flux iterate.
    """
    if isinstance(omega, GridImage):
        om = omega.data
    else:
        om = np.asarray(omega, dtype=float)
    if om.ndim != 2 or om.shape[0] != om.shape[1]:
        raise ValueError("omega must be a square image")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    n = om.shape[0]
    if n < 3:
        raise ValueError("image too small")
    h = 1.0 / n
    c = DIV_SCALE
    delta, eps = DELTA, EPS
    w = om.ravel()

    B = shared("tv", n, "B", lambda: _face_incidence(n))
    dim = B.shape[1]

    @functools.cache
    def grams():    # (h^2 c^2 B'B, G'G), formed only for an M or R not live
        G = _face_gradient(n)
        return (h * h * c * c * (B.T @ B)).tocsr(), (G.T @ G).tocsr()

    # the smooth quadratic Hessian
    M = shared("tv", n, "M", lambda: grams()[0] + 2.0 * eps * grams()[1])
    Dtw = (h * h * c) * (B.T @ w)
    const = 0.5 * h * h * float(w @ w)

    eye = sp.identity(dim, format="csr")
    prob = penalised_quadratic(
        M, Dtw, const, sp.vstack([eye, -eye]).tocsr(), np.full(2 * dim, delta),
        gamma,
        metric=shared_metric("tv", n, lambda: (
            grams()[0] + eps * grams()[1] + C0 * sp.identity(dim)).tocsr()),
        name="tv",
        x0=-delta * np.sign(B.T @ w),
        # the imaging configuration: alpha = 1e-4 carries the acceptance
        # (n=16, gamma=1e2 takes 13 solves; 30 at the default alpha, 21 at
        # the default Lambda_0); the decrease test never binds on flux
        # boxes, so beta is the driver's (1e-4 gave the same trace.csv)
        lambda0=64.0,
        alpha=1e-4,
        sample_box=(np.full(dim, -4.0 * delta), np.full(dim, 4.0 * delta)),
    )
    prob.reconstruct = lambda q: GridImage((w + c * (B @ q)).reshape(n, n))
    return prob

