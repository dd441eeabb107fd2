"""Deterministic random streams for the problem suite.

SplitMix64 with the usual golden-gamma increment, vectorised over numpy
uint64 (wraparound is the algorithm: numpy's uint64 array arithmetic
wraps silently, and the state advances in Python integers).  Uniforms map
the top 53 bits into (0, 1]; normals come from Box-Muller pairs.  Every
draw is made in blocks of ``_BLOCK`` values with in-place arithmetic, so
its temporaries stay block-sized whatever the count; only the returned
array has the full size.  The stream is part of the reproducibility
contract: tests freeze its first outputs, so any change here is a
breaking change.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_TWO53 = float(2.0 ** -53)
_MASK = (1 << 64) - 1
# values per block (even, so a block holds whole Box-Muller pairs)
_BLOCK = 1 << 14
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * GOLDEN   # i * GOLDEN


def _uniforms_of(z, u):
    """The uniforms of the raw outputs ``z`` into ``u`` (``z`` is spent)."""
    z >>= _S11
    z += _ONE
    u[...] = z
    u *= _TWO53


class SplitMix64:
    """Sequential SplitMix64 stream, drawn in vectorised blocks."""

    def __init__(self, seed: int):
        self.state = np.uint64(seed & _MASK)

    def _blocks(self, out):
        """Pairs (block of ``out``, the next raw outputs, as many) over
        consecutive blocks of at most ``_BLOCK`` entries of ``out``.  The
        raw buffer is reused, so each block must be consumed before the
        next is drawn."""
        buf = np.empty(min(out.size, _BLOCK), dtype=np.uint64)
        tmp = np.empty_like(buf)
        for start in range(0, out.size, _BLOCK):
            block = out[start:start + _BLOCK]
            z, t = buf[:block.size], tmp[:block.size]
            np.add(_STEPS[:z.size], self.state, out=z)
            self.state = np.uint64((int(self.state) + z.size * int(GOLDEN))
                                   & _MASK)
            np.right_shift(z, _S30, out=t)
            z ^= t
            z *= MIX1
            np.right_shift(z, _S27, out=t)
            z ^= t
            z *= MIX2
            np.right_shift(z, _S31, out=t)
            z ^= t
            yield block, z

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw uint64 outputs."""
        out = np.empty(count, dtype=np.uint64)
        for block, z in self._blocks(out):
            block[...] = z
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """count floats in (0, 1]."""
        out = np.empty(count)
        for block, z in self._blocks(out):
            _uniforms_of(z, block)
        return out

    def normals(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller on uniform pairs."""
        out = np.empty(2 * ((count + 1) // 2))
        u = np.empty(min(out.size, _BLOCK))
        r, th, trig = (np.empty(u.size // 2) for _ in range(3))
        for block, z in self._blocks(out):
            m = block.size // 2
            _uniforms_of(z, u[:2 * m])
            np.log(u[0:2 * m:2], out=r[:m])
            r[:m] *= -2.0
            np.sqrt(r[:m], out=r[:m])
            np.multiply(u[1:2 * m:2], 2.0 * np.pi, out=th[:m])
            np.cos(th[:m], out=trig[:m])
            np.multiply(r[:m], trig[:m], out=block[0::2])
            np.sin(th[:m], out=trig[:m])
            np.multiply(r[:m], trig[:m], out=block[1::2])
        return out[:count]

    def signs(self, count: int) -> np.ndarray:
        """count values from {+1.0, -1.0}, P(+1) = 1/2."""
        return np.where(self.uniforms(count) <= 0.5, 1.0, -1.0)
