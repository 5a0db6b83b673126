"""Adaptive integer frequency partitions.

For an exponent ``alpha`` in [0, 1] the nonnegative integers are tiled by
consecutive intervals whose widths grow like the alpha-th power of the
start frequency:

    start(0) = 0, stop(0) = 1, width(0) = 1
    start(p) = stop(p-1)
    width(p) = floor(start(p) ** alpha)      (p >= 1)
    stop(p)  = start(p) + width(p)

alpha = 0 gives unit widths (every frequency its own interval); alpha = 1
gives the dyadic ladder start(p) = 2**(p-1).  Negative frequencies are
covered implicitly by mirror symmetry: the interval for -p is the negation
of the interval for p.

The floor is evaluated exactly.  ``alpha`` is coerced to a Fraction (floats
through their shortest decimal repr, so 0.3 means 3/10, reduced
denominator at most MAX_DENOMINATOR) and floor(i**(a/b)) is resolved by
exact integer Newton steps from a floating-point seed.

Storage.  Widths change rarely: at alpha = 0 every interval has width 1,
and at alpha = 1/2 the 369 intervals below 2**15 have 180 widths.  A
partition therefore stores runs (p, lo, width, count) of consecutive
intervals of one width, inside which start(p) is arithmetic.  A run of
width w ends at the first start i with i**a >= (w+1)**b: one exact integer
root of (w+1)**b per run, seeded from a float and corrected exactly like
floor(i**alpha); floor_power then gives the width at the next start, which
can exceed w + 1 while starts are small.  ``interval``, ``locate``,
``p_max`` and ``stop`` answer from the runs by bisection, and the
``intervals`` tuple is built on first use.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_DENOMINATOR",
    "PartitionInterval",
    "Run",
    "AlphaPartition",
    "coerce_alpha",
    "floor_power",
    "build_partition",
    "partition_covering",
    "covering_bounds_hold",
]

# Exact arithmetic raises integers to powers as large as alpha's numerator
# and denominator, so its cost grows with them: at 10**7 (alpha = 0.1234567)
# a 50-interval ladder ran for longer than 8 s.  10**4 keeps every power
# used here to a few hundred thousand bits.
MAX_DENOMINATOR = 10**4


def coerce_alpha(alpha) -> Fraction:
    """Interpret ``alpha`` as an exact rational in [0, 1].

    Fractions pass through; ints and floats are read through str(), so a
    float carries its decimal intent (0.3 -> 3/10, not the binary double).
    The reduced denominator may not exceed MAX_DENOMINATOR.
    """
    if isinstance(alpha, Fraction):
        frac = alpha
    elif isinstance(alpha, (int, np.integer)) and not isinstance(alpha, bool):
        frac = Fraction(int(alpha))
    elif isinstance(alpha, float):
        frac = Fraction(str(alpha))
    else:
        raise TypeError(f"alpha must be a number or Fraction, got {alpha!r}")
    if not 0 <= frac <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {frac}")
    if frac.denominator > MAX_DENOMINATOR:
        raise ValueError(
            f"alpha denominator must be at most {MAX_DENOMINATOR}, got {frac}"
        )
    return frac


def _iroot(target: int, b: int, base: int, e: float) -> int:
    """Largest k >= 1 with k**b <= target (target >= 1), exact.

    Seeds from base ** e in floating point, or from log2(base) past the
    float range, raises the seed to a bound above the root, and runs
    integer Newton steps down from it: each step lands on or above the
    root and strictly below its start until it reaches the root, so a
    seed good to many bits costs a few powers whatever the root's size.
    """
    try:
        k = int(float(base) ** e)
    except OverflowError:
        t = math.log2(base) * e
        shift = max(int(t) - 52, 0)
        k = int(2.0 ** (t - shift)) << shift
    x = k + (k >> 32) + 2
    while x**b <= target:
        x *= 2
    while True:
        y = ((b - 1) * x + target // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def floor_power(i: int, alpha: Fraction) -> int:
    """Exact floor(i ** alpha) for integer i >= 1 and rational alpha >= 0."""
    if i < 1:
        raise ValueError(f"base must be >= 1, got {i}")
    a, b = alpha.numerator, alpha.denominator
    if a == 0:
        return 1
    return _iroot(i**a, b, i, a / b)


@dataclass(frozen=True)
class PartitionInterval:
    """Half-open integer interval [start, stop) at ladder position p >= 0."""

    p: int
    start: int
    stop: int

    @property
    def width(self) -> int:
        return self.stop - self.start

    def frequencies(self) -> np.ndarray:
        return np.arange(self.start, self.stop)


class Run(NamedTuple):
    """``count`` consecutive intervals of one width starting at ladder index p:
    interval p + k is [lo + k*width, lo + (k+1)*width) for 0 <= k < count."""

    p: int
    lo: int
    width: int
    count: int

    @property
    def stop(self) -> int:
        return self.lo + self.count * self.width


@dataclass(frozen=True)
class AlphaPartition:
    """Intervals 0..p_max of the ladder, stored as runs of equal width."""

    alpha: Fraction
    runs: tuple[Run, ...]

    @cached_property
    def intervals(self) -> tuple[PartitionInterval, ...]:
        return tuple(
            PartitionInterval(r.p + k, r.lo + k * r.width, r.lo + (k + 1) * r.width)
            for r in self.runs
            for k in range(r.count)
        )

    @cached_property
    def widths(self) -> np.ndarray:
        """Width of every interval 0..p_max, one repeat over the runs (read-only)."""
        out = np.repeat([r.width for r in self.runs], [r.count for r in self.runs])
        out.flags.writeable = False
        return out

    @cached_property
    def _firsts(self) -> list[int]:
        return [r.p for r in self.runs]

    @cached_property
    def _starts(self) -> list[int]:
        return [r.lo for r in self.runs]

    @property
    def p_max(self) -> int:
        last = self.runs[-1]
        return last.p + last.count - 1

    @property
    def stop(self) -> int:
        """One past the largest covered frequency."""
        return self.runs[-1].stop

    def _run(self, p: int) -> Run:
        """The run holding the interval at |p|."""
        k = abs(p)
        if k > self.p_max:
            raise ValueError(f"p = {p} outside partition (p_max = {self.p_max})")
        return self.runs[bisect_right(self._firsts, k) - 1]

    def width(self, p: int) -> int:
        """Width of the interval at |p|."""
        return self._run(p).width

    def interval(self, p: int) -> PartitionInterval:
        """Interval at |p|; the band at p < 0 is its negation, (-stop, -start]."""
        run, k = self._run(p), abs(p)
        start = run.lo + (k - run.p) * run.width
        return PartitionInterval(k, start, start + run.width)

    def locate(self, eta: int) -> int:
        """Signed ladder index p with eta in band(p).

        Mirror convention: locate(-eta) = -locate(eta) for eta > 0.
        """
        mag = abs(int(eta))
        if mag >= self.stop:
            raise ValueError(
                f"frequency {eta} not covered (partition stops at {self.stop})"
            )
        run = self.runs[bisect_right(self._starts, mag) - 1]
        p = run.p + (mag - run.lo) // run.width
        return p if eta >= 0 else -p


def _run_end(width: int, alpha: Fraction, cap: int) -> int:
    """min(cap, least i with floor(i**alpha) > width).

    With alpha = a/b that least i is the least i with i**a >= (width+1)**b;
    one exact comparison at cap settles whether it lies below cap at all.
    """
    a, b = alpha.numerator, alpha.denominator
    target = (width + 1) ** b
    if a == 0 or cap**a < target:
        return cap
    return _iroot(target - 1, a, width + 1, b / a) + 1


def _runs(alpha: Fraction, limit: int | None, count: int | None) -> tuple[Run, ...]:
    """Runs of the recurrence over the starts below ``limit``, or over its
    first ``count`` intervals.

    Inside a run the starts step by the run's width; the run ends at the
    first start whose width exceeds it, and floor_power gives the width
    there (it can jump by more than 1 while starts are small).
    """
    runs: list[Run] = []
    p = start = 0
    while (limit is None or start < limit) and (count is None or p < count):
        width = floor_power(start, alpha) if start else 1
        cap = limit if count is None else start + (count - p) * width
        k = -(-(_run_end(width, alpha, cap) - start) // width)
        runs.append(Run(p, start, width, k))
        p, start = p + k, start + k * width
    return tuple(runs)


def build_partition(alpha, p_max: int) -> AlphaPartition:
    """Intervals 0..p_max of the recurrence."""
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    frac = coerce_alpha(alpha)
    return AlphaPartition(frac, _runs(frac, None, p_max + 1))


def partition_covering(alpha, limit: int) -> AlphaPartition:
    """Smallest partition whose intervals cover [0, limit)."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    frac = coerce_alpha(alpha)
    return AlphaPartition(frac, _runs(frac, limit, None))


def covering_bounds_hold(partition: AlphaPartition, p: int) -> bool:
    """Exact rational check of 2**-(alpha+1) <= width/eta**alpha <= 1 on band p.

    With alpha = a/b the two sides reduce to integer comparisons:
        width**b <= eta**a            (ratio <= 1; worst eta = start)
        width**b * 2**(a+b) >= eta**a (ratio >= 2**-(alpha+1); worst eta = stop-1)
    """
    iv = partition.interval(p)
    if iv.p == 0:
        raise ValueError("covering bounds are stated for p >= 1")
    a, b = partition.alpha.numerator, partition.alpha.denominator
    w = iv.width
    upper_ok = w**b <= iv.start**a
    lower_ok = w**b * 2 ** (a + b) >= (iv.stop - 1) ** a
    return upper_ok and lower_ok
