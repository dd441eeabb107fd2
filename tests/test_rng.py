"""Tests for the deterministic random stream.

The scalar pure-int reference below is the independent oracle: the
vectorised numpy implementation must reproduce it bit for bit, and the
frozen constants pin the stream itself (it is part of the
reproducibility contract, so any drift is a breaking change).
"""

import numpy as np
import pytest

from leapssn.suite import SplitMix64
from leapssn.suite.rng import _BLOCK

_M64 = (1 << 64) - 1


def _ref_stream(seed, count):
    """Scalar SplitMix64, straight from the published constants."""
    out = []
    s = seed & _M64
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & _M64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z = z ^ (z >> 31)
        out.append(z)
    return out


def test_matches_scalar_reference():
    for seed in (0, 1, 42, 0xDEADBEEF, _M64):
        got = [int(v) for v in SplitMix64(seed).raw(16)]
        assert got == _ref_stream(seed, 16), f"seed {seed}"


def test_frozen_first_outputs():
    # seed 0 starts with the canonical published SplitMix64 output
    assert [int(v) for v in SplitMix64(0).raw(2)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert [int(v) for v in SplitMix64(42).raw(4)] == [
        0xBDD732262FEB6E95, 0x28EFE333B266F103,
        0x47526757130F9F52, 0x581CE1FF0E4AE394]


def test_chunking_does_not_change_the_stream():
    rng = SplitMix64(7)
    a = np.concatenate([rng.raw(5), rng.raw(11)])
    b = SplitMix64(7).raw(16)
    assert np.array_equal(a, b)


def test_uniforms_are_in_half_open_unit_interval():
    u = SplitMix64(3).uniforms(20000)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_moments():
    z = SplitMix64(11).normals(4001)   # odd count exercises the pair trim
    assert z.shape == (4001,)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_signs_are_fair_coin():
    s = SplitMix64(5).signs(10000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.05


def test_streams_with_same_seed_are_identical():
    a = SplitMix64(123).normals(64)
    b = SplitMix64(123).normals(64)
    assert np.array_equal(a, b)
    c = SplitMix64(124).normals(64)
    assert not np.array_equal(a, c)


def _unblocked_normals(seed, count):
    """Box-Muller normals from one full-size vectorised draw of the stream."""
    pairs = (count + 1) // 2
    i = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    z = np.uint64(seed) + i * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    th = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(th)
    out[1::2] = r * np.sin(th)
    return out[:count]


@pytest.mark.parametrize("count", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 3])
def test_block_edges_do_not_change_the_normals(count):
    # a draw is made in blocks of _BLOCK values; the normals are those of
    # one unblocked draw bit for bit, and the stream goes on after the
    # last uniform used (an odd count uses both of its last pair's)
    rng = SplitMix64(7)
    got = rng.normals(count)
    assert got.tobytes() == _unblocked_normals(7, count).tobytes()
    used = 2 * ((count + 1) // 2)
    assert [int(v) for v in rng.raw(1)] == _ref_stream(7, used + 1)[-1:]
