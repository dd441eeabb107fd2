"""Deterministic random streams for the problem suite.

SplitMix64 with the usual golden-gamma increment, vectorised over numpy
uint64 (wraparound is the algorithm: numpy's uint64 array arithmetic
wraps silently, and the state advances in Python integers).  Uniforms map
the top 53 bits into (0, 1]; normals come from Box-Muller pairs.  Every
draw is made in blocks of at most ``_BLOCK`` values, so its temporaries
stay block-sized whatever the count; only the returned array has the
full size.  The stream is part of the reproducibility contract: tests
freeze its first outputs, so any change here is a breaking change.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
# values per block (even, so a block holds whole Box-Muller pairs)
_BLOCK = 1 << 14
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * GOLDEN   # i * GOLDEN


class SplitMix64:
    """Sequential SplitMix64 stream, drawn in vectorised blocks."""

    def __init__(self, seed: int):
        self.state = np.uint64(seed & _MASK)

    def _blocks(self, count):
        """Pairs (offset, the raw outputs from there) over the next
        ``count`` outputs, in consecutive blocks of at most ``_BLOCK``."""
        for offset in range(0, count, _BLOCK):
            k = min(_BLOCK, count - offset)
            z = _STEPS[:k] + self.state
            self.state = np.uint64((int(self.state) + k * int(GOLDEN)) & _MASK)
            z ^= z >> 30
            z *= MIX1
            z ^= z >> 27
            z *= MIX2
            z ^= z >> 31
            yield offset, z

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw uint64 outputs."""
        out = np.empty(count, dtype=np.uint64)
        for offset, z in self._blocks(count):
            out[offset:offset + z.size] = z
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """count floats in (0, 1]."""
        out = np.empty(count)
        for offset, z in self._blocks(count):
            out[offset:offset + z.size] = ((z >> 11) + 1) * 2.0 ** -53
        return out

    def normals(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller on uniform pairs."""
        out = np.empty(2 * ((count + 1) // 2))
        for offset, z in self._blocks(out.size):
            u = ((z >> 11) + 1) * 2.0 ** -53
            r = np.sqrt(-2.0 * np.log(u[0::2]))
            th = (2.0 * np.pi) * u[1::2]
            out[offset:offset + z.size:2] = r * np.cos(th)
            out[offset + 1:offset + z.size:2] = r * np.sin(th)
        return out[:count]

    def signs(self, count: int) -> np.ndarray:
        """count values from {+1.0, -1.0}, P(+1) = 1/2."""
        return np.where(self.uniforms(count) <= 0.5, 1.0, -1.0)
