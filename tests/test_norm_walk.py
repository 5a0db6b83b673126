"""The norms' leaf walk keeps the bits of numpy's own pairwise sum.

spectral._norm sums its squared parts leaf by leaf on the tree numpy's
np.sum walks on a contiguous float64 array (a split at n // 2 rounded
down to a multiple of 8).  These tests pin that split: were numpy to sum
another way, the walk would drift from np.sum in its last bits here
first.  The oracles are the whole-array expressions the walk replaces,
the residual and the squares formed on the whole grid.
"""

import math

import numpy as np
import pytest

from stockframe.spectral import _norm, _rel_norm

# every workload's grid, as complex parts: frame1d-stream, frame-design,
# basis-long, and nd-stream's three
WORKLOAD_SIZES = [2048, 48, 1 << 16, 64 * 64, 128 * 128, 16 ** 3]
WALK_SIZES = (list(range(301)) + [(1 << k) + d for k in range(7, 18) for d in range(-9, 10)]
              + WORKLOAD_SIZES)
SCALES = [0, 565, -565, 1020]


def plain_norm(x):
    """The norm before the walk: the squares formed on the whole array,
    rescaled where their sum leaves the float range."""
    parts = x.view(np.float64)
    with np.errstate(over="ignore"):
        total = float(np.sum(parts * parts))
        if 2.0 ** -1000 <= total < math.inf:
            return math.sqrt(total)
        big = float(np.max(np.abs(parts), initial=0.0))
        if not 0.0 < big < math.inf:
            return math.sqrt(total)
        _, e = math.frexp(big)
        scaled = np.ldexp(parts, -e)
        return float(np.ldexp(math.sqrt(float(np.sum(scaled * scaled))), e))


def plain_rel_norm(d, ref):
    """||d|| / ||ref|| on the residual d = x - ref formed whole."""
    num, den = plain_norm(d), plain_norm(ref)
    if max(num, den) < math.inf or not den:
        return num / (den or 1.0)
    parts = [a.view(np.float64) for a in (d, ref)]
    _, e = math.frexp(max(float(np.max(np.abs(p), initial=0.0)) for p in parts))
    num, den = (plain_norm(np.ldexp(p, -e)) for p in parts)
    return num / (den or 1.0)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


def noise(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_walk_keeps_the_bits_of_numpys_pairwise_sum():
    rng = np.random.default_rng(0)
    off = []
    for n in WALK_SIZES:
        x = noise(rng, n)
        parts = x.view(np.float64)
        if not same_bits(_norm(x), math.sqrt(float(np.sum(parts * parts)))):
            off.append(n)
    assert off == []


@pytest.mark.parametrize("k", SCALES)
def test_norm_of_a_difference_keeps_the_bits_of_the_formed_residual(k):
    rng = np.random.default_rng(1)
    off = []
    for n in WALK_SIZES[::7] + WORKLOAD_SIZES:
        x = noise(rng, n) * 2.0 ** k
        r = x + noise(rng, n) * 2.0 ** (k - 12)
        if not same_bits(_norm(x, r), plain_norm(x - r)):
            off.append(n)
    assert off == []


@pytest.mark.parametrize("k", SCALES)
def test_rel_norm_keeps_the_bits_of_the_formed_residual(k):
    rng = np.random.default_rng(2)
    off = []
    for n in [0, 1, 7, 300, 4095, 4097, 9000] + WORKLOAD_SIZES:
        x = noise(rng, n) * 2.0 ** k
        for r in (x + noise(rng, n) * 2.0 ** (k - 12), np.zeros(n, complex)):
            if not same_bits(_rel_norm(x, r), plain_rel_norm(x - r, r)):
                off.append((n, bool(r.any())))
    assert off == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "ref"])
def test_rel_norm_of_a_non_finite_part_matches_the_formed_residual(bad, where):
    rng = np.random.default_rng(3)
    for n in (8, 5000):
        x = noise(rng, n)
        r = x + noise(rng, n) * 2.0 ** -12
        (x if where == "x" else r)[n // 3] = complex(bad, 1.0)
        with np.errstate(invalid="ignore"):
            assert same_bits(_rel_norm(x, r), plain_rel_norm(x - r, r)), n
            assert same_bits(_norm(x, r), plain_norm(x - r)), n
