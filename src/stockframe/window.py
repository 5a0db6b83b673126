"""Spectral windows and per-band window stacks.

A window is described by its frequency profile phihat (real, nonnegative,
vectorized) plus, when available, a closed-form time profile.  The stack
of a window over a partition collects, for every signed band p, the band
sum

    Phi_p(omega) = sum_{eta in band(p)} phihat(omega - mu * eta)

evaluated on the grid frequencies; mu scales the integer band lattice.

The stack holds each band as a record, its nonzero extent [lo, hi) in
grid bins and its values there, all values concatenated, in p order,
-p_max .. p_max; sums over bands, H0 among them, add in that order.
`lattice_records` builds the records of a batch of lattices (the n-D
axis factors too); it equals a point-by-point sum over the whole grid
bit for bit while evaluating only the samples that can be nonzero:

- Reach: both frames keep only the lattice points mu * eta with |eta| <=
  `_lattice_reach`, those within the zero radius (and a bin) of the grid.
  A point farther out adds only +0.0 on every grid bin.
- Zero radius: of the k bins a point is laid on, only the lanes with
  |omega - point| <= zero_radius reach the profile.  The profile is
  exactly 0.0 past it, and adding +0.0 leaves an accumulator's bits as
  they are (it never holds -0.0).
- Profile table: a sample omega - point = (offset + lane) - point, offset
  an integer, is one rounding of an exact real, so it depends on the
  point only through the exact value offset - point.  Points whose float
  difference offset - point is exact (TwoSum's error is 0) share a row of
  samples per distinct difference; a point whose difference rounds has a
  row of its own.  A lattice of at least a block of points whose first
  block shares rows two to one, and whose rows fit in a block, evaluates
  each row's lanes within the zero radius once into a table of at most
  LATTICE_BLOCK samples (the other lanes hold +0.0), and each block of
  points gathers its rows from it: the Gaussian at mu = 0.5, alpha = 1/2
  takes 2,205 samples at n = 2048 and n = 16384 alike, against 129,024
  and 1,032,192 (point, lane) pairs.  Any other lattice is evaluated
  point by point: where the differences do not repeat (mu = 0.7071) a
  table would add its sort and gather and save nothing, and below a block
  (n = 48, the n-D axis factors) its fixed cost exceeds the samples it
  saves.  A count of the first block's distinct differences decides.
- Blocks: LATTICE_BLOCK samples at a time keeps each temporary at 512 KB,
  so a block's passes stay in a core's L2 cache; blocks of 2^20 samples
  (8 MB temporaries) spill from it and built the n = 16384 stacks 1.4x
  slower.  Each block of whole points adds its samples, from the table or
  its own, with one add.at in point order, so the records do not depend
  on the block size.

Profiles are even functions evaluated through x**2, so the mirror bands
are bit-for-bit frequency reversals of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context
from functools import cached_property
from typing import Callable

import numpy as np

from .partition import AlphaPartition, partition_covering
from .spectral import FrequencyGrid

__all__ = [
    "Window",
    "gaussian_window",
    "truncated_gaussian",
    "table_window",
    "WindowStack",
    "build_stack",
    "lattice_records",
    "AdmissibilityReport",
    "admissibility",
    "StackBounds",
    "stack_sum_bounds",
    "gaussian_floor",
]

# Profile values below this are treated as zero when counting overlaps.
OVERLAP_THRESHOLD = 1e-12
# Entries of one fold (complex slots of a chunk of bands, or of an n-D
# analysis) or of one lattice evaluation (points times bins per point).
COEFF_CAP = 1 << 24
# Window samples a lattice evaluation forms at once (whole points): 512 KB
# temporaries, which stay in cache.
LATTICE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Window:
    """Frequency-profile window.

    freq_profile: vectorized map omega -> phihat(omega), real, in [0, 1].
    time_profile: closed-form time evaluator or None.
    support_radius: smallest L with phihat = 0 outside [-L, L]; inf when
        the profile never vanishes (Gaussian).
    """

    kind: str
    freq_profile: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    time_profile: Callable[[np.ndarray], np.ndarray] | None = field(repr=False)
    support_radius: float

    @property
    def compact(self) -> bool:
        return math.isfinite(self.support_radius)

    @property
    def zero_radius(self) -> float:
        """Radius beyond which freq_profile is exactly 0.0 (Gaussian: exp underflows past 15.4008)."""
        return min(self.support_radius, 15.5) if self.freq_profile is _gauss else self.support_radius


_GAUSS_AMP = 1.0 / math.sqrt(2.0)


def _gauss(x):
    # the operations of AMP * exp(-pi * x**2), one buffer for all four
    out = np.square(x, out=np.empty(np.shape(x)))
    out *= -np.pi
    np.exp(out, out=out)
    out *= _GAUSS_AMP
    return out[()]


def gaussian_window() -> Window:
    """Self-dual normalized Gaussian: both profiles are 2**-0.5 exp(-pi x^2)."""
    return Window("gaussian", _gauss, _gauss, math.inf)


def truncated_gaussian(eps: float) -> Window:
    """Gaussian profile cut to [-1-eps, 1+eps] with a cubic smoothstep blend.

    Identical to the Gaussian on [-1, 1], exactly zero outside the
    support, C^1 at both blend ends.  No closed-form time profile.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")

    def profile(x):
        x = np.asarray(x, dtype=float)
        mag = np.abs(x)
        # a tiny eps overflows the ratio to inf, which clips to 1
        with np.errstate(over="ignore"):
            u = np.clip((mag - 1.0) / eps, 0.0, 1.0)
        taper = 1.0 + u * u * (2.0 * u - 3.0)  # 1 -> 0 on the blend
        return np.where(mag >= 1.0 + eps, 0.0, _gauss(x) * taper)

    return Window(f"truncated_gaussian({eps:g})", profile, None, 1.0 + eps)


def table_window(omegas, values) -> Window:
    """Window interpolated linearly from a sample table, zero outside it."""
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    if omegas.ndim != 1 or omegas.shape != values.shape or omegas.size < 2:
        raise ValueError("need matching 1-d tables with at least two points")
    if not (np.isfinite(omegas).all() and np.isfinite(values).all()):
        raise ValueError("table abscissae and values must be finite")
    if np.any(np.diff(omegas) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if np.any(values < 0):
        raise ValueError("profile values must be nonnegative")

    def profile(x):
        return np.interp(np.asarray(x, dtype=float), omegas, values, left=0.0, right=0.0)

    radius = float(max(abs(omegas[0]), abs(omegas[-1])))
    return Window("table", profile, None, radius)


class _ReadOnly:
    """Base of the frozen dataclasses that hold arrays (WindowStack, and
    frame1d's records, chunks and split): each array field is made
    read-only as the holder is built; one that replace() passes on is
    read-only already and left as it is."""

    def __post_init__(self) -> None:
        for x in vars(self).values():
            if isinstance(x, np.ndarray) and x.flags.writeable:
                x.setflags(write=False)


@dataclass(frozen=True)
class WindowStack(_ReadOnly):
    """Band sums of a window over a partition, as records: band ps[b] is
    nonzero only on its extent [lo[b], hi[b]) of grid bins, (0, 0) when
    all zero, and holds values[u + offset[b]] at bin u; arrays read-only."""

    window: Window
    mu: float
    grid: FrequencyGrid
    partition: AlphaPartition
    ps: tuple[int, ...]
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def p_list(self) -> list[int]:
        return list(self.ps)

    @cached_property
    def _where(self) -> dict[int, int]:
        return {p: b for b, p in enumerate(self.ps)}

    def band(self, p: int) -> np.ndarray:
        """Band p on the whole grid, built on demand."""
        lo, hi, off = (int(x[self._where[p]]) for x in (self.lo, self.hi, self.offset))
        out = np.zeros(self.grid.size)
        out[lo:hi] = self.values[lo + off:hi + off]
        return out

    @property
    def bands(self) -> dict[int, np.ndarray]:
        """Dense copies of all bands, built on every access."""
        return {p: self.band(p) for p in self.ps}

    def sum_of_squares(self) -> np.ndarray:
        """H0 = sum_p Phi_p^2: one bincount over the records, which adds
        each bin's squares in p order, as a dense band-by-band sum would."""
        return np.bincount(_runs(self.lo, self.hi - self.lo), self.values * self.values, self.grid.size)


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated integer ranges starts[i] .. starts[i] + lengths[i] - 1."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _spans(keep: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Records laid end to end in keep, record b at bins lo[b] .. lo[b] +
    length[b] - 1, each cut to the span from its first kept entry to its
    last: rows (lo, hi), (0, 0) where none is kept, from one searchsorted
    of the record edges in the kept entries that start or end a run."""
    ends, joined = np.cumsum(length), np.zeros(keep.size + 1, dtype=bool)
    joined[1:-1] = keep[1:] & keep[:-1]  # entries e - 1 and e kept, in one record
    joined[ends - length] = False
    kept = np.flatnonzero(keep & ~(joined[:-1] & joined[1:]))  # less those inside a run: no span ends
    edge = np.searchsorted(kept, np.append(0, ends))  # record b keeps kept[edge[b]] .. kept[edge[b + 1] - 1]
    if not kept.size:
        return np.zeros((2, lo.size), dtype=np.int64)
    span = lo - ends + length + kept.take((edge[:-1], edge[1:] - 1), mode="clip") + [[0], [1]]
    return np.where(edge[1:] > edge[:-1], span, 0)


def _trim(values: np.ndarray, keep: np.ndarray, lo: np.ndarray,
          length: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, values): the spans (_spans) and their values, one mask gather."""
    cut, hi = _spans(keep, lo, length)
    some = hi > cut
    first = (cut - lo + np.cumsum(length) - length)[some]  # each span's first entry
    # the mask: runs out of and in the spans by turns, from entry 0
    edges = np.concatenate(([0], np.stack((first, first + (hi - cut)[some]), axis=1).ravel(), [keep.size]))
    return cut, hi, values[np.repeat((np.arange(edges.size - 1) & 1).astype(bool), np.diff(edges))]


def _point_bins(window: Window, n: int) -> int:
    """Bins a lattice point is evaluated on: those that can lie within the
    zero radius, and a spare bin a side for rounding."""
    return int(min(n, np.ceil(2 * window.zero_radius) + 4))


def _g(count: int) -> str:
    """An integer in %g form, past the float range too."""
    try:
        return f"{count:g}"
    except OverflowError:
        return f"{Context(prec=6).create_decimal(count).normalize():g}"


def _check_reach(half: int, mu: float) -> None:
    """Refuse a non-finite mu, and a mu whose lattice reach half / mu
    passes the float range."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu:g}")
    if not math.isfinite(half / mu):
        raise ValueError(f"a lattice of n / mu = {2 * half} / {mu:g} points passes the float range; raise mu")


def _lattice_reach(window: Window, mu: float, n: int) -> float:
    """Largest |eta| whose lattice point mu * eta can add a nonzero sample
    on the grid of size n, inf for a window that never vanishes: a point
    more than the zero radius off the grid adds only +0.0, and the spare
    bin covers the rounding of mu * eta and of omega - mu * eta."""
    return float(np.floor((n // 2 + window.zero_radius + 1.0) / mu))


def _lattice_budget(window: Window, points: int, n: int) -> None:
    """Refuse a lattice of this many points on the grid of size n before it
    is evaluated, if points times bins per point pass COEFF_CAP; the
    counts print in %g form, as a tiny mu makes them hundreds of digits."""
    terms = points * _point_bins(window, n)
    if terms > COEFF_CAP:
        raise ValueError(f"a lattice of {_g(points)} points has {_g(terms)} window samples, "
                         f"over the cap {COEFF_CAP}; raise mu")


def _row_keys(offset: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The profile table's row keys: offset - points where the float
    difference is exact (TwoSum's error is 0), and NaN, a row of its own,
    where it rounds."""
    diff = offset - points
    back = diff - offset
    return np.where((offset - (diff - back)) - (points + back) != 0, np.nan, diff)


def lattice_records(window: Window, points: np.ndarray, counts: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, offset, values): band b sums phihat(omega - point) over the
    next counts[b] points on the grid of size n, values[u + offset[b]] at
    bin u of its nonzero extent, end to end; (0, 0) if it is all zero.

    Points past `_lattice_reach` add only +0.0, so callers leave them out,
    after checking the size (`_lattice_budget`).  Each point's lanes within
    the zero radius are evaluated (the rest add +0.0), once per profile-table
    row where the lattice's exact differences repeat, else point by point,
    in blocks of at most LATTICE_BLOCK samples, each added in point order
    with one add.at (module docstring).  The arrays are fresh and writable;
    their holder (WindowStack, frame1d.BandRecords) makes them read-only."""
    half = n // 2
    radius = window.zero_radius
    k = _point_bins(window, n)
    live = counts > 0
    counts = counts[live]
    start = np.clip(np.floor(points - radius) + (half - 1), 0, n - k).astype(np.int64)
    # band b sums into acc[u + cell[b]] for the bins u = base[b] .. + length[b] - 1
    heads = np.cumsum(counts) - counts
    base = np.minimum.reduceat(start, heads)
    length = np.maximum.reduceat(start, heads) + k - base
    cell = np.cumsum(length) - length - base
    slot = start + np.repeat(cell, counts)
    # x = omega - point: offset + lane is an exact integer, so one rounding
    offset, lanes = (start - half).astype(float), np.arange(k)
    acc = np.zeros(int(length.sum()))
    step = max(1, LATTICE_BLOCK // k)
    table = None
    if points.size >= step and 2 * np.unique(_row_keys(offset[:step], points[:step]),
                                              equal_nan=False).size <= step:
        # the first block's points share rows two to one: key them all
        _, first, row = np.unique(_row_keys(offset, points), return_index=True, return_inverse=True,
                                  equal_nan=False)
        if first.size <= step:
            # x = omega - point from each row's first point, one rounding each
            x = np.add.outer(offset[first], lanes.astype(float)) - points[first, None]
            keep = np.abs(x) <= radius
            table = np.zeros(x.shape)
            table[keep] = window.freq_profile(x[keep])
    for a in range(0, points.size, step):
        if table is not None:
            # the rows' samples, +0.0 past the radius, gathered to their points
            np.add.at(acc, np.add.outer(slot[a:a + step], lanes).ravel(),
                      table.take(row[a:a + step], 0).ravel())
        else:
            x = np.add.outer(offset[a:a + step], lanes.astype(float)) - points[a:a + step, None]
            keep = np.abs(x) <= radius
            np.add.at(acc, np.add.outer(slot[a:a + step], lanes)[keep], window.freq_profile(x[keep]))
    lo, hi = np.zeros((2, live.size), dtype=np.int64)
    lo[live], hi[live], values = _trim(acc, acc != 0, base, length)
    return lo, hi, np.cumsum(hi - lo) - hi, values


def build_stack(window: Window, mu: float, alpha, n: int) -> WindowStack:
    """Stack over the grid of size n.

    The partition is extended until its scaled lattice passes the grid
    edge, and every signed p with mu * start(|p|) <= n/2 gets a band, so
    each grid row (Nyquist included) has a lattice point within mu.
    The bands are in p order, -p_max .. p_max; H0 adds in it.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    grid = FrequencyGrid(n)
    _check_reach(grid.half, mu)
    limit = int(math.floor(grid.half / mu)) + 1
    _lattice_budget(window, 2 * limit - 3, n)  # every |eta| <= limit - 2 is in the lattice
    partition = partition_covering(alpha, limit + 1)
    start = np.concatenate([r.lo + r.width * np.arange(r.count) for r in partition.runs])
    p_max = int(np.count_nonzero(mu * start <= grid.half)) - 1
    ps = np.arange(-p_max, p_max + 1)
    first, counts = start[np.abs(ps)], partition.widths[np.abs(ps)]
    _lattice_budget(window, int(counts.sum()), n)  # the whole lattice: refusals do not hang on the reach
    # a band's points past the reach add only +0.0; its first is within it
    counts = np.minimum(counts, _lattice_reach(window, mu, n) + 1 - first).astype(np.int64)
    points = mu * _runs(first, counts)
    # rounding is sign-symmetric: -(mu * eta) == mu * (-eta)
    points = np.where(np.repeat(ps < 0, counts), -points, points)
    return WindowStack(window, mu, grid, partition, tuple(ps.tolist()),
                       *lattice_records(window, points, counts, n))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Grid scan of the three window-stack conditions.

    c1: largest band value anywhere (uniform bound).
    c2: largest number of bands simultaneously above the overlap threshold.
    c3: worst-case best band value (inf over omega of max_p Phi_p).
    passed: c3 > 0, i.e. no spectral hole on the grid.
    painless: the window is compactly supported, so the vanishing-overlap
        argument applies once 1/q < 1/(2L + mu); a Gaussian reports
        passed=True, painless=False.
    """

    c1: float
    c2: int
    c3: float
    passed: bool
    painless: bool


def admissibility(stack: WindowStack) -> AdmissibilityReport:
    """Read the records, a bin off a band's extent counting as 0.0 there;
    maxima, minima and counts are exact, so this equals a dense scan."""
    bins, values, n = _runs(stack.lo, stack.hi - stack.lo), stack.values, stack.grid.size
    best = np.where(np.bincount(bins, minlength=n) < len(stack.ps), 0.0, -np.inf)  # max_p Phi_p at each bin
    np.maximum.at(best, bins, values)
    above = np.bincount(bins[values > OVERLAP_THRESHOLD], minlength=n)
    c3 = float(best.min())
    return AdmissibilityReport(float(best.max()), int(above.max()), c3, c3 > 0.0, stack.window.compact)


@dataclass(frozen=True)
class StackBounds:
    """Extremes of H0 = sum_p Phi_p^2 over the grid."""

    a_low: float
    b_high: float


def stack_sum_bounds(stack: WindowStack) -> StackBounds:
    h0 = stack.sum_of_squares()
    return StackBounds(float(h0.min()), float(h0.max()))


def gaussian_floor(mu: float) -> float:
    """Proven lower bound (1/2) exp(-2 pi mu^2) for the Gaussian stack's H0."""
    return 0.5 * math.exp(-2.0 * math.pi * mu * mu)

