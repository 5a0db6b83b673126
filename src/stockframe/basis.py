"""Orthonormal bases of boxcar-band elements with in-band translations.

The element at band p >= 1 and translation slot tau is

    B_{p,tau}(t) = w**-0.5 * sum_{eta in band(p)} exp(2 pi i eta (t - tau/w)),

tau = 0 .. w-1, where band(p) is the partition interval of width w; the
element at -p is its conjugate (band negated), and B_{0,0} = 1.  For
alpha = 0 every band is a single frequency and the family degenerates to
the Fourier basis; for alpha = 1 it is the dyadic family.

On a grid of size n the nonnegative bands tile [0, n/2); when the
partition recurrence overshoots n/2 the last band is clipped to end
there (a width-w run of consecutive frequencies with translations tau/w
is orthonormal for any w, so nothing else changes).  The Nyquist row
-n/2 belongs to no band: analysis/synthesis act on the subspace with a
zero Nyquist coefficient, which keeps conjugate-mirror bands exact.

Spectral side of an element (used by the fast path):

    Bhat_{p,tau}(xi) = w**-0.5 * exp(-2 pi i xi tau / w)   for xi in band(p),

uniformly in the sign of p, so per band the analysis sweep over tau is a
length-w inverse DFT of the band slice (cyclically rotated by the band
start), and synthesis is the matching forward DFT.

Storage.  The layout keeps the signed bands as runs of equal width in
ascending p: the mirrored negative runs, the DC band, the positive runs
and a clipped last band, with neighbours of one width merged (alpha = 0
is a single run of n - 1 unit bands).  In p order the bands tile
-(n/2-1) .. n/2-1 with no gap, so the coefficients are one flat array of
length n - 1 in which band p starts at offset lo + n/2 - 1; data[p] is a
read-only view into it.

Transforms.  A mirrored negative run and its positive run share a width,
so analysis and synthesis run one batched length-w DFT per distinct
width w > 1, not one per run.  A plan per (alpha, n) holds two index
arrays over one "grouped" order, in which the bands sit in ascending
width (runs in ascending p within a width), one band per row: ``src``
maps each slot to its bin of the unshifted length-n FFT, the band
rotated by lo % w, and ``dst`` to its coefficient in the flat p-ordered
array.  Analysis is one FFT of the signal, one gather through ``src``,
the 1/n factor, one inverse DFT and one sqrt(w) scale per width and one
scatter through ``dst``; synthesis runs the same steps mirrored and ends
in one inverse FFT of the signal.  Every DFT and scale runs in place on
the gathered rows; analysis scatters the coefficients into the buffer of
the signal's FFT, read by then, and synthesis runs its last inverse FFT
in place and hands that buffer over read-only, uncopied.  So a call
holds at most 2.5 grids of 16 B a point at once (analysis: the spectrum,
its gather and np.take's intp copy of the int32 ``src``; synthesis about
2).  Every value sees the arithmetic of a
band-by-band loop, so the results equal it bit for bit.  Plans are kept
in a module cache of PLAN_CACHE_SIZE entries, least recently used first
out; an entry holds about 8 bytes per grid point (int32 indices).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .partition import AlphaPartition, Run, build_partition, coerce_alpha, partition_covering
from .spectral import FrequencyGrid, SpectralSignal, TimeSamples, _adopt, from_spectrum

__all__ = [
    "BasisIndex",
    "BandLayout",
    "DostCoefficients",
    "band_layout",
    "basis_element",
    "analyze_naive",
    "analyze_fast",
    "synthesize",
    "gram_matrix",
    "gram_deviation",
    "concentration",
]

# gram_matrix forms an (n - 1) x n element matrix and its (n - 1)^2 Gram
# matrix: 16 MB each at the cap, 4.3 GB each at n = 16384.
GRAM_SIZE_CAP = 1024
# basis_element and concentration hold a few complex length-n arrays at
# once: 64 MB each at the cap, 16 GiB each at n = 2^30.
ELEMENT_SIZE_CAP = 1 << 22
# Transform plans kept, one per (alpha, n); see _plan.
PLAN_CACHE_SIZE = 8


@dataclass(frozen=True)
class BasisIndex:
    """Signed band index p and translation slot tau (0 <= tau < width)."""

    p: int
    tau: int


@dataclass(frozen=True)
class BandLayout:
    """Signed bands covering a grid, Nyquist excluded, stored as runs.

    ``runs`` lists the bands in ascending p as runs of equal width: band
    p + k of run (p, lo, width, count) is [lo + k*width, lo + (k+1)*width).
    In p order the bands tile -(n/2-1) .. n/2-1 with no gap, so band p's
    coefficients sit at offset lo(p) + n/2 - 1 of a flat length-(n-1) array.
    """

    alpha: object  # Fraction
    grid: FrequencyGrid
    partition: AlphaPartition
    runs: tuple[Run, ...]
    clipped: bool

    @cached_property
    def bands(self) -> dict[int, tuple[int, int]]:
        """[lo, hi) per signed p, in ascending p."""
        return {
            r.p + k: (r.lo + k * r.width, r.lo + (k + 1) * r.width)
            for r in self.runs
            for k in range(r.count)
        }

    @cached_property
    def p_list(self) -> list[int]:
        return list(range(self.runs[0].p, -self.runs[0].p + 1))

    @cached_property
    def _firsts(self) -> list[int]:
        return [r.p for r in self.runs]

    def band(self, p: int) -> tuple[int, int]:
        """[lo, hi) of the band at signed p."""
        i = bisect_right(self._firsts, p) - 1
        if i < 0 or p > -self.runs[0].p:
            raise KeyError(p)
        r = self.runs[i]
        lo = r.lo + (p - r.p) * r.width
        return lo, lo + r.width

    def width(self, p: int) -> int:
        lo, hi = self.band(p)
        return hi - lo

    def indices(self):
        for p in self.p_list:
            for tau in range(self.width(p)):
                yield BasisIndex(p, tau)


def _mirror(r: Run) -> Run:
    """Run of the negated bands -p, in ascending p."""
    return Run(-(r.p + r.count - 1), 1 - r.stop, r.width, r.count)


def band_layout(alpha, n: int) -> BandLayout:
    """Signed band plan tiling {-(n/2-1), ..., n/2-1} for a grid of size n."""
    grid = FrequencyGrid(n)
    half = grid.half
    partition = partition_covering(alpha, half)
    pos = list(partition.runs)
    last = pos[-1]
    clipped = last.stop > half
    if clipped:
        # the ladder overshoots n/2: its last band ends there instead
        top = last.stop - last.width
        pos[-1:] = [last._replace(count=last.count - 1), Run(last.p + last.count - 1, top, half - top, 1)]
    # the mirror of the first run, which starts at p = 0, ends on the DC
    # band itself; the positive runs then start at p = 1
    signed = [_mirror(r) for r in reversed(pos)] + [Run(1, 1, 1, pos[0].count - 1)] + pos[1:]
    runs: list[Run] = []
    for r in signed:
        if r.count == 0:
            continue
        if runs and runs[-1].width == r.width:
            runs[-1] = runs[-1]._replace(count=runs[-1].count + r.count)
        else:
            runs.append(r)
    return BandLayout(partition.alpha, grid, partition, tuple(runs), clipped)


class _BandViews(Mapping):
    """Read-only p -> coefficient view of a flat p-ordered array."""

    def __init__(self, layout: BandLayout, values: np.ndarray):
        self._layout = layout
        self._values = values

    def __getitem__(self, p: int) -> np.ndarray:
        lo, hi = self._layout.band(p)
        off = lo + self._layout.grid.half - 1
        view = self._values[off : off + hi - lo]
        view.flags.writeable = False
        return view

    def __iter__(self):
        return iter(self._layout.p_list)

    def __len__(self) -> int:
        return len(self._layout.p_list)


@dataclass
class DostCoefficients:
    """Coefficients in one flat array, band by band in ascending p.

    data[p][tau] pairs with BasisIndex(p, tau); data[p] is a read-only
    view into ``values``.
    """

    layout: BandLayout
    values: np.ndarray = field(repr=False)

    @property
    def data(self) -> Mapping[int, np.ndarray]:
        return _BandViews(self.layout, self.values)

    def __getitem__(self, index: BasisIndex | tuple[int, int]) -> complex:
        p, tau = (index.p, index.tau) if isinstance(index, BasisIndex) else index
        return complex(self.data[p][tau])

    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


def _element_spectrum(grid: FrequencyGrid, lo: int, hi: int, tau: int) -> np.ndarray:
    w = hi - lo
    if not 0 <= tau < w:
        raise ValueError(f"tau = {tau} outside 0..{w - 1}")
    coeffs = np.zeros(grid.size, dtype=np.complex128)
    etas = np.arange(lo, hi)
    sl = slice(grid.index_of(lo), grid.index_of(lo) + w)
    coeffs[sl] = np.exp(-2j * np.pi * etas * tau / w) / np.sqrt(w)
    return coeffs


def basis_element(alpha, index: BasisIndex, n: int) -> TimeSamples:
    """Time samples of one element; the band must fit the grid.  Grids
    above ELEMENT_SIZE_CAP are refused before anything is built."""
    grid = FrequencyGrid(n)
    if n > ELEMENT_SIZE_CAP:
        raise ValueError(f"basis element grid capped at n = {ELEMENT_SIZE_CAP}, got {n}")
    # the bands of the ladder that covers the grid, before any far band is built
    part = partition_covering(alpha, grid.half)
    if abs(index.p) > part.p_max:
        raise ValueError(f"band {index.p} outside the grid: |p| <= {part.p_max} at n = {n}")
    iv = part.interval(index.p)
    if iv.stop > grid.half:
        raise ValueError(
            f"band {index.p} spans [{iv.start}, {iv.stop}), beyond grid half {grid.half}"
        )
    if index.p >= 0:
        lo, hi = iv.start, iv.stop
    else:
        lo, hi = -iv.stop + 1, -iv.start + 1
    return from_spectrum(SpectralSignal(grid, _element_spectrum(grid, lo, hi, index.tau)))


def analyze_naive(alpha, x: TimeSamples) -> DostCoefficients:
    """Direct double-sum evaluation of the analysis inner products,

        c_{p,tau} = (1/(n sqrt(w))) sum_eta e^{2 pi i eta tau / w}
                    sum_t x(t) e^{-2 pi i eta t},

    with both exponential sums written out explicitly (no FFT anywhere).
    O(n^2); exists as the reference the fast path is checked against.
    """
    layout = band_layout(alpha, x.grid.size)
    n = x.grid.size
    half = x.grid.half
    t = x.grid.times()
    values = np.empty(n - 1, dtype=np.complex128)
    for lo, hi in layout.bands.values():
        w = hi - lo
        etas = np.arange(lo, hi)
        z = np.exp(-2j * np.pi * np.outer(etas, t)) @ x.values / n
        phases = np.exp(2j * np.pi * np.outer(np.arange(w), etas) / w)
        values[lo + half - 1 : hi + half - 1] = phases @ z / np.sqrt(w)
    return DostCoefficients(layout, values)


class _Plan(NamedTuple):
    """Band layout plus the index arrays of the width-grouped order."""

    layout: BandLayout
    src: np.ndarray  # grouped position -> unshifted FFT bin
    dst: np.ndarray  # grouped position -> offset in the flat p-ordered array
    blocks: tuple[tuple[int, slice], ...]  # (w, stretch of the grouped order) per w > 1


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(alpha: Fraction, n: int) -> _Plan:
    """The transform plan of a coerced alpha on a grid of size n.

    Bands are grouped by ascending width, runs in ascending p within a
    width, one band [lo, lo + w) per row.  Slot tau of a row is
    coefficient tau of its band (``dst``) and frequency
    lo + (tau - lo % w) % w of the spectrum (``src``): the band rotated by
    lo % w, as np.roll does.  Cached: PLAN_CACHE_SIZE entries, each about
    8 bytes per grid point (two int32 index arrays of length n - 1) plus
    the layout.
    """
    layout = band_layout(alpha, n)
    by_width: dict[int, list[Run]] = {}
    for r in layout.runs:
        by_width.setdefault(r.width, []).append(r)
    srcs, dsts, blocks, stop = [], [], [], 0
    for w in sorted(by_width):
        for r in by_width[w]:
            lo = r.lo + w * np.arange(r.count)[:, None]
            srcs.append((lo + (np.arange(w) - r.lo % w) % w).ravel())
            dsts.append(np.arange(r.lo, r.lo + r.count * w))
        start, stop = stop, stop + w * sum(r.count for r in by_width[w])
        if w > 1:
            blocks.append((w, slice(start, stop)))
    dtype = np.int32 if n < 2**31 else np.int64
    src = (np.concatenate(srcs) % n).astype(dtype)
    dst = (np.concatenate(dsts) + (layout.grid.half - 1)).astype(dtype)
    src.flags.writeable = dst.flags.writeable = False
    return _Plan(layout, src, dst, tuple(blocks))


def analyze_fast(alpha, x: TimeSamples) -> DostCoefficients:
    """FFT path: one batched length-w inverse DFT per distinct band width.

    One FFT of the signal, gathered into the width-grouped order with
    every band rotated by lo % w, then scattered to the flat p-ordered
    coefficient array.
    """
    n = x.grid.size
    plan = _plan(coerce_alpha(alpha), n)
    spectrum = np.fft.fft(x.values)
    grouped = np.take(spectrum, plan.src)
    grouped /= n
    for w, stretch in plan.blocks:
        rows = grouped[stretch].reshape(-1, w)
        np.fft.ifft(rows, axis=1, out=rows)
        rows *= np.sqrt(w)
    values = spectrum[: n - 1]  # the spectrum is read; its buffer takes the coefficients
    values[plan.dst] = grouped
    return DostCoefficients(plan.layout, values)


def synthesize(coeffs: DostCoefficients) -> TimeSamples:
    """Rebuild the signal; exact inverse of analysis on the covered subspace."""
    layout = coeffs.layout
    n = layout.grid.size
    values = np.asarray(coeffs.values, dtype=np.complex128)
    if values.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} coefficients, got shape {values.shape}")
    plan = _plan(layout.alpha, n)
    grouped = np.take(values, plan.dst)
    for w, stretch in plan.blocks:
        rows = grouped[stretch].reshape(-1, w)
        np.fft.fft(rows, axis=1, out=rows)
        rows /= np.sqrt(w)
    spectrum = np.zeros(n, dtype=np.complex128)  # the Nyquist bin n/2 stays 0
    spectrum[plan.src] = grouped
    np.fft.ifft(spectrum, out=spectrum)
    spectrum *= n
    return _adopt(TimeSamples, layout.grid, spectrum)


def gram_matrix(alpha, n: int) -> tuple[list[BasisIndex], np.ndarray]:
    """All pairwise inner products over the grid's band plan.

    Returns (index list, complex Gram matrix); orthonormality means the
    matrix is the identity to round-off.  Grids above GRAM_SIZE_CAP are
    refused before anything is built: the check forms two n x n matrices.
    """
    if n > GRAM_SIZE_CAP:
        raise ValueError(f"exhaustive Gram check capped at n = {GRAM_SIZE_CAP}, got {n}")
    layout = band_layout(alpha, n)
    grid = layout.grid
    indices = list(layout.indices())
    mat = np.empty((len(indices), grid.size), dtype=np.complex128)
    for row, idx in enumerate(indices):
        lo, hi = layout.bands[idx.p]
        mat[row] = _element_spectrum(grid, lo, hi, idx.tau)
    return indices, mat @ mat.conj().T


def gram_deviation(alpha, n: int) -> float:
    """max |Gram - I|."""
    _, gram = gram_matrix(alpha, n)
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def concentration(alpha, index: BasisIndex, n: int, cells: float = 1.0) -> float:
    """Fraction of element energy near its translation center.

    Measured on the circular interval of half-width cells/w around
    tau/w (w the band width), by the trapezoid rule on the sample grid
    with endpoints snapped to the nearest sample.  The default one-cell
    half-width covers the element's full main lobe; the claimed bound for
    that choice is a fraction >= 0.85 at every (p, tau), the actual
    infimum being about 0.9028.  cells = 0.5 measures the half-lobe
    variant instead.  Grids above ELEMENT_SIZE_CAP are refused, as in
    basis_element.
    """
    if cells <= 0:
        raise ValueError(f"cells must be positive, got {cells}")
    elem = basis_element(alpha, index, n)
    density = np.abs(elem.values) ** 2 / n  # sums to ~1 over the period
    w = build_partition(alpha, max(abs(index.p), 1)).interval(index.p).width
    half_width = cells / w
    if 2 * half_width >= 1.0:
        return 1.0
    center = index.tau / w
    a = round((center - half_width) * n)
    b = round((center + half_width) * n)
    idx = np.arange(a, b + 1) % n
    mass = density[idx].sum() - 0.5 * (density[idx[0]] + density[idx[-1]])
    return float(mass)
