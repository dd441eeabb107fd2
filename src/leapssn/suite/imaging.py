"""Grayscale image helpers: clamped [0,1] grids, binary PGM, PSNR, phantom.

Images live on the unit square with |Omega| = 1, so the continuous mean
square error is just the pixel mean and PSNR = 10 log10(1 / MSE).
"""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64


class GridImage:
    """Square grayscale image with values clamped to [0, 1]."""

    def __init__(self, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2:
            raise ValueError("image data must be 2-D")
        self.data = np.clip(arr, 0.0, 1.0)

    @property
    def shape(self):
        return self.data.shape


def psnr(u: GridImage, g: GridImage) -> float:
    """10 log10(|Omega| / ||u - g||_L2^2) = 10 log10(1 / mean sq. error).

    Identical images give +inf.
    """
    if u.shape != g.shape:
        raise ValueError("images must have equal shape")
    mse = float(np.mean((u.data - g.data) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def write_pgm(img: GridImage, path) -> None:
    """Binary PGM (P5, maxval 255); values linearly mapped to 0..255."""
    px = np.rint(img.data * 255.0).astype(np.uint8)
    h, w = px.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(px.tobytes())


def read_pgm(path) -> GridImage:
    """Read a binary PGM written by :func:`write_pgm` (P5, maxval 255)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # header: magic, width, height, maxval -- whitespace separated, with
    # optional '#' comment lines
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(raw):
            raise ValueError("truncated PGM header")
        ch = raw[i:i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j:j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    if tokens[0] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError("only maxval 255 is supported")
    i += 1  # single whitespace byte after maxval
    px = np.frombuffer(raw[i:i + w * h], dtype=np.uint8)
    if px.size != w * h:
        raise ValueError("truncated PGM pixel data")
    return GridImage(px.reshape(h, w).astype(float) / 255.0)


# (intensity, semi-axis a, semi-axis b, centre x0, centre y0, angle degrees)
_ELLIPSES = [
    (1.00, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.80, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.20, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.20, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.10, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.10, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.10, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.10, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.10, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.10, 0.023, 0.046, 0.06, -0.605, 0.0),
]


def phantom(n: int = 64) -> GridImage:
    """Piecewise-constant head phantom built from overlapping ellipses."""
    ys, xs = np.meshgrid(np.linspace(1.0, -1.0, n), np.linspace(-1.0, 1.0, n),
                         indexing="ij")
    img = np.zeros((n, n))
    for val, a, b, x0, y0, ang in _ELLIPSES:
        th = np.deg2rad(ang)
        xr = (xs - x0) * np.cos(th) + (ys - y0) * np.sin(th)
        yr = -(xs - x0) * np.sin(th) + (ys - y0) * np.cos(th)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    return GridImage(img)


def add_noise(img: GridImage, sigma: float, seed: int) -> GridImage:
    """Seeded additive Gaussian noise; result re-clamped to [0, 1]."""
    rng = SplitMix64(seed)
    noise = rng.normals(img.data.size).reshape(img.shape)
    return GridImage(img.data + sigma * noise)
