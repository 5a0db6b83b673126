"""Non-stationary frames with band-adapted translation lattices (1D).

For a window stack Phi_p (see window.py) and a translation step nu = 1/q,
the frame element at band p and slot k has spectral coefficients

    element_{p,k}(j) = width**-0.5 * exp(-2 pi i j k / (q*width)) * Phi_p(j),

k = 0 .. q*width - 1.  At alpha = 0 every width is 1 and the family is
exactly the Gabor system of mu-modulations and (k/q)-translations of the
window.

The frame operator S f = sum <f, element> element has the exact spectral
representation (a discrete Walnut sum)

    (S f)^(j) = q * sum_p sum_m (f^ . Phi_p)(j - m*q*width_p) * Phi_p(j),

the m = 0 term being the diagonal q * H0 * f^ with H0 = sum_p Phi_p^2.
`frame_operator_apply` composes analysis and synthesis;  `walnut_apply`
evaluates the shift sum directly; agreement of the two is a structural
self-check, and the m != 0 terms bounded by their sups give certified
frame bounds without any eigensolve:

    A = (inf H0 - h_tail) / nu <= lambda_min,
    lambda_max <= (sup H0 + h_tail) / nu,
    h_tail = sum_p sum_{m != 0} sup_j |Phi_p(j - m*q*width_p) Phi_p(j)|.

For a compactly supported window with support radius L and q > 2L + mu
every shifted product vanishes identically (the painless regime): S is
diagonal and the bounds are attained.

The canonical dual comes from the conjugate filter

    Omega_p = nu * conj(Phi_p) / H0,   sum_p Omega_p Phi_p = nu,

whose elements use the same phases with Omega in place of Phi.  Since
m / w = q, analysis against Omega followed by synthesis with Phi is an
FFT pair that cancels: reconstruction is q Phi_p(j) fold_m(f^ Omega_p)[j
mod m] summed over p, with no coefficients.

Each band is held as a record, in p order (`FrameSpec.records`,
gathered once from the stack's records): its nonzero extent [lo, hi) in
grid bins, its values there, its width w and its period m = q*w.  The
records are cut into chunks of whole bands holding a few thousand bins
(FoldChunk), and every operator reads them a chunk at a time, so its
temporaries stay small whatever the grid.  Analysis gathers f^ on a
chunk's extents, multiplies by the window values, folds mod m with one
add.at of the complex terms and runs one inverse FFT per run of bands of
equal period (in p order these runs are long: width(p) =
width(|p|) is monotone in |p|; a run of large periods is cut into groups
of a few thousand coefficients); synthesis runs the forward FFT per
group, gathers the spread onto the extents and adds it into the grid;
reconstruction folds f^ Omega_p and adds q Phi_p times the fold, with no
FFT.  The n-D frame (tiling.py) runs the same chunk bodies on its boxes.

A Gaussian never vanishes, so its records run out to the window's zero
radius, 15.5 bins from each lattice point, though past about 4.2 bins a
sample is below TAU = 2^-80 of the peak and moves no O(1) sum by a
rounding.  So analysis, synthesis, reconstruction and the held dual read
the core records (FrameSpec.core, built on first use by one vectorized
pass over the values): each extent cut to the span of its samples of
magnitude >= TAU times the family's largest.  Compact windows keep their
extents.  What certifies or checks reads the full records, tails
included: H0, the Walnut sum, the bounds, the eigenbounds, admissibility
and the dual residual.  On dense input the folds give the same bits on
the core records as on the full ones (measured over the test matrices);
that is not given by construction: an input that lives only on dropped
bins shows a difference, made of dropped terms, each at most
TAU * peak * |f(u)| times its other factors.  The dual is held on the
core records (FrameSpec.duals): Omega_p at every core bin, one read-only
array per chunk, 8 B per core bin, built on the first reconstruction
from the cached H0.

A band's shifted product Phi_p(u - s) Psi_p(u) is nonzero only where
both extents meet, so `walnut_apply`,
`walnut_bounds` and `frame_bounds_eigen` enumerate every (band, shift)
pair and its overlap once, in (p, m) order, and `frame_bounds_eigen`
assembles the operator from its Walnut kernel

    S[u, v] = q * sum_p Phi_p(u) Phi_p(v) [u = v mod q*width_p],

which agrees with the analysis + synthesis operator to round-off; the
n-D Walnut sum and tail bound run on the same pair kernels.  All
other outputs equal the dense per-band (or per-shift) evaluation bit for
bit (the folds on the core records as measured, above), because every
bin receives the same additions in the same order:
folds in ascending frequency, synthesis and reconstruction in coefficient
(ascending p) order, Walnut terms in (p, m) order and H0 in the stack's
band order; each shift's maximum comes from one reduceat.  Bins outside an
extent would only receive +0.0, which changes no sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .partition import AlphaPartition
from .spectral import FrequencyGrid, SpectralSignal, TimeSamples, to_spectrum
from .window import COEFF_CAP, Window, WindowStack, _runs, build_stack

__all__ = [
    "FrameSpec",
    "make_frame_spec",
    "FrameCoefficients",
    "frame_element",
    "analyze",
    "synthesize",
    "frame_operator_apply",
    "walnut_apply",
    "WalnutBoundReport",
    "walnut_bounds",
    "FrameBounds",
    "frame_bounds_eigen",
    "ConjugateFilter",
    "conjugate_filter",
    "FrameGapError",
    "reconstruct",
]

EIGEN_SIZE_CAP = 1024
H0_FLOOR = 1e-14
# Every operator forms this many bins or terms at a time (rounded to
# whole bands or shifts): its temporaries stay small and cache-resident
# on any grid, and never depend on how the allocator serves large blocks.
_TERM_CHUNK = 1 << 12
# A record sample below TAU times its family's largest value moves no O(1)
# sum by a rounding: the folds read the records trimmed to the rest.
TAU = 2.0 ** -80


class FrameGapError(ValueError):
    """The stack leaves a spectral hole; no conjugate filter exists."""


def _chunks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Nonempty runs [a, b) of consecutive items, covering them all, that
    hold about _TERM_CHUNK elements each; an item is never split."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_TERM_CHUNK, total, _TERM_CHUNK), side="right")
    # an item longer than a chunk yields repeated cuts, and a first item
    # longer than a chunk a cut at 0
    cuts = sorted(set(cuts.tolist()) - {0, lengths.size})
    return list(zip([0, *cuts], [*cuts, lengths.size])) if lengths.size else []


def _fold(x: np.ndarray, fold: np.ndarray, size: int) -> np.ndarray:
    """Complex x summed into size slots, x[i] into slot fold[i]: one
    add.at adds each slot's terms in the order of x, from +0.0."""
    out = np.zeros(size, dtype=np.complex128)
    np.add.at(out, fold, x)
    return out


@dataclass
class FoldChunk:
    """Consecutive bands (or n-D boxes) of a family, bands, whose supports
    hold about _TERM_CHUNK bins, lengths[i] of them in the i-th band.

    bins are the flat grid bins of the supports, band after band, and
    values the band values there; fold is the slot each bin folds into
    and spreads from (its band's slot base plus its residue mod m), in a
    fold of size slots.  runs are the maximal runs (a, b, w, m) of bands
    of equal width and period.
    """

    bands: slice
    runs: tuple[tuple[int, int, int, int], ...]
    lengths: np.ndarray = field(repr=False)
    bins: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    fold: np.ndarray = field(repr=False)
    size: int


@dataclass
class BandRecords:
    """One record per band of a family, in the order ps: its nonzero
    extent [lo, hi) in grid bins, its width w and period m = q*w, and its
    values, concatenated: band b holds values[u + offset[b]] at bin u of
    its extent.  half is the grid's half size (bin u is frequency u - half).
    """

    ps: tuple
    lo: np.ndarray
    hi: np.ndarray
    offset: np.ndarray
    values: np.ndarray
    w: np.ndarray
    m: np.ndarray
    half: int

    def take(self, ps) -> BandRecords:
        """The records of the bands ps, in that order: one gather."""
        where = {p: b for b, p in enumerate(self.ps)}
        index = np.array([where[p] for p in ps], dtype=np.int64)
        lo, hi = self.lo[index], self.hi[index]
        values = self.values[_runs(lo + self.offset[index], hi - lo)]
        return BandRecords(tuple(ps), lo, hi, np.cumsum(hi - lo) - hi, values,
                           self.w[index], self.m[index], self.half)

    @cached_property
    def chunks(self) -> tuple[FoldChunk, ...]:
        """The records cut into chunks of whole bands; built on first use."""
        length = self.hi - self.lo

        def expand(a, b):
            bins, start = _runs(self.lo[a:b], length[a:b]), int(self.lo[a] + self.offset[a])
            return (bins, (bins - self.half) % np.repeat(self.m[a:b], length[a:b]),
                    self.values[start:start + bins.size])

        return tuple(_cut(length, self.m, self.w, self.m.tolist(), expand))


def _core(g: BandRecords) -> BandRecords:
    """The records with each extent cut to the span of its samples of
    magnitude >= TAU times the family's largest (empty if it has none):
    one scan of the values, whatever the number of bands."""
    mag = np.abs(g.values)
    start, length = g.lo + g.offset, g.hi - g.lo  # band b's values start at start[b]
    keep = np.append(np.flatnonzero(mag >= TAU * np.max(mag, initial=0.0)), 0)
    i, j = np.searchsorted(keep[:-1], start), np.searchsorted(keep[:-1], start + length)
    full = j > i  # band b keeps values keep[i[b]] .. keep[j[b] - 1]
    first, stop = np.where(full, keep[i], 0), np.where(full, keep[j - 1] + 1, 0)
    lo = np.where(full, g.lo + first - start, 0)
    hi = lo + stop - first
    return BandRecords(g.ps, lo, hi, np.cumsum(hi - lo) - hi, g.values[_runs(first, stop - first)],
                       g.w, g.m, g.half)


def _cut(length: np.ndarray, slots: np.ndarray, w: np.ndarray, period: list[int], expand):
    """Yield the chunks of whole bands of a family: band b holds length[b]
    bins, folds into slots[b] slots and has width w[b] and period
    period[b].  expand(a, b) gives the bins of bands a .. b - 1, each
    bin's slot in its band (to which the band's slot base in the chunk is
    added) and the values there.  A chunk's fold may not pass COEFF_CAP
    slots."""
    for a, b in _chunks(length):
        size = sum(slots[a:b].tolist())
        if size > COEFF_CAP:
            raise ValueError(f"a fold of {size} slots exceeds the cap {COEFF_CAP}; reduce q")
        bins, fold, values = expand(a, b)
        fold += np.repeat(np.cumsum(slots[a:b]) - slots[a:b], length[a:b])
        cuts = (a + np.flatnonzero(np.diff(w[a:b])) + 1).tolist()
        runs = tuple((s, e, int(w[s]), period[s]) for s, e in zip([a, *cuts], [*cuts, b]))
        yield FoldChunk(slice(a, b), runs, length[a:b], bins, values, fold, size)


def _groups(c: FoldChunk, d: int):
    """Yield the chunk's runs of equal period cut into groups of whole
    bands of at most _TERM_CHUNK coefficients (m^d per band), or one band,
    as (a, b, w, m, base): bands a .. b - 1, whose coefficient slots in
    the chunk start at base."""
    base = 0
    for a, b, w, m in c.runs:
        step = max(1, _TERM_CHUNK // m ** d)
        for s in range(a, b, step):
            e = min(s + step, b)
            yield s, e, w, m, base
            base += (e - s) * m ** d


def _dft(x: np.ndarray, d: int, transform) -> np.ndarray:
    """transform (np.fft.fft or ifft) over axes d .. 1 of x, the last one
    first, as numpy's n-D transforms apply it (bit for bit)."""
    for axis in range(d, 0, -1):
        x = transform(x, axis=axis)
    return x


def _fold_runs(x: np.ndarray, place: np.ndarray, c: FoldChunk, d: int, root) -> list[np.ndarray]:
    """The coefficient blocks of a chunk's bands, in band order: x folded
    at place into m^d slots per band, then m^d ifftn(block) / root(w), one
    inverse DFT per group of bands of equal period."""
    groups = list(_groups(c, d))
    folded = _fold(x, place, sum((b - a) * m ** d for a, b, _, m, _ in groups))
    blocks: list[np.ndarray] = []
    for a, b, w, m, base in groups:
        run = folded[base:base + (b - a) * m ** d].reshape((b - a,) + (m,) * d)
        run = _dft(run, d, np.fft.ifft)
        run *= m ** d  # in place: the same roundings as m^d * run / root(w)
        run /= root(w)
        blocks.extend(run)
    return blocks


def _spread_runs(acc: np.ndarray, coeffs: list[np.ndarray], c: FoldChunk, place: np.ndarray,
                 d: int, root) -> None:
    """Add a chunk's bands, weighted by coeffs (one block per band), into
    acc: one DFT per group of bands of equal period, read at each bin's
    slot place, times values / root(w)."""
    groups, first = list(_groups(c, d)), c.bands.start
    spread = np.empty(sum((b - a) * m ** d for a, b, _, m, _ in groups), dtype=np.complex128)
    for a, b, _, m, base in groups:
        run = _dft(np.array(coeffs[a - first:b - first]), d, np.fft.fft)
        spread[base:base + run.size] = run.ravel()
    roots = [root(w) for _, _, w, _ in c.runs]
    roots = np.repeat(np.repeat(roots, [b - a for a, b, _, _ in c.runs]), c.lengths)
    np.add.at(acc, c.bins, c.values * spread[place] / roots)


def _family_records(spec: FrameSpec, family: dict[int, np.ndarray], ps) -> BandRecords:
    """Records of a replacement family's bands ps on their own nonzero extents."""
    ps = tuple(ps)
    mat = np.array([family[p] for p in ps])
    nz, n = mat != 0, mat.shape[1]
    lo = np.where(nz.any(axis=1), nz.argmax(axis=1), 0)
    hi = np.where(nz.any(axis=1), n - nz[:, ::-1].argmax(axis=1), 0)
    values = mat.ravel()[_runs(lo + n * np.arange(len(ps)), hi - lo)]
    w = np.array([spec.width(p) for p in ps], dtype=np.int64)
    return BandRecords(ps, lo, hi, np.cumsum(hi - lo) - hi, values, w, spec.q * w, spec.grid.half)


@dataclass
class FrameSpec:
    """Frozen description of one frame instance on a grid."""

    alpha: Fraction
    window: Window
    mu: float
    q: int
    grid: FrequencyGrid
    partition: AlphaPartition
    stack: WindowStack
    walnut_k_max: int

    @property
    def nu(self) -> float:
        return 1.0 / self.q

    @property
    def p_range(self) -> list[int]:
        return self.stack.p_list

    def width(self, p: int) -> int:
        return self.partition.width(p)

    def k_count(self, p: int) -> int:
        return self.q * self.width(p)

    @cached_property
    def h0(self) -> np.ndarray:
        """H0 = sum_p Phi_p^2 on the grid, read-only; built on first use."""
        h0 = self.stack.sum_of_squares()
        h0.flags.writeable = False
        return h0

    @cached_property
    def duals(self) -> tuple[np.ndarray, ...]:
        """The dual Omega = nu Phi / H0 at the bins of each core chunk,
        read-only; built on first use."""
        return _held_duals(self.core.chunks, self.h0, self.nu)

    @cached_property
    def records(self) -> BandRecords:
        """The stack records in p order, read by the Walnut sum and the
        bounds; built on first use."""
        st = self.stack
        w = np.array([self.width(p) for p in st.ps], dtype=np.int64)
        return BandRecords(st.ps, st.lo, st.hi, st.offset, st.values, w, self.q * w,
                           self.grid.half).take(self.p_range)

    @cached_property
    def core(self) -> BandRecords:
        """The records cut to their numerical core (_core), read by
        analysis, synthesis and reconstruction; built on first use."""
        return _core(self.records)


def make_frame_spec(window: Window, mu: float, q: int, alpha, n: int,
                    walnut_k_max: int | None = None) -> FrameSpec:
    """Build the stack and bookkeeping for a frame on a grid of size n."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"q must be a positive integer, got {q!r}")
    stack = build_stack(window, mu, alpha, n)
    m_max = int(q) * stack.partition.width(stack.ps[-1])  # the band farthest out is widest
    if m_max >= 1 << 63:
        raise ValueError(f"q = {q} makes the period q*w = {m_max} overflow int64")
    if walnut_k_max is None:
        walnut_k_max = math.ceil(n / (2 * q))
    return FrameSpec(stack.partition.alpha, window, mu, int(q), stack.grid,
                     stack.partition, stack, int(walnut_k_max))


@dataclass
class FrameCoefficients:
    """Per-band coefficient arrays; data[p][k] = <f, element_{p,k}>."""

    spec: FrameSpec = field(repr=False)
    data: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    def __getitem__(self, key: tuple[int, int]) -> complex:
        p, k = key
        return complex(self.data[p][k])

    def band(self, p: int) -> np.ndarray:
        return self.data[p]

    def energy(self) -> float:
        return float(sum(np.sum(np.abs(c) ** 2) for c in self.data.values()))


def _as_spectrum(spec: FrameSpec, f) -> np.ndarray:
    if isinstance(f, TimeSamples):
        f = to_spectrum(f)
    if not isinstance(f, SpectralSignal):
        raise TypeError(f"expected TimeSamples or SpectralSignal, got {type(f)!r}")
    if f.grid != spec.grid:
        raise ValueError(f"grid mismatch: signal {f.grid.size}, spec {spec.grid.size}")
    return f.coeffs


def frame_element(spec: FrameSpec, p: int, k: int) -> SpectralSignal:
    """Spectral coefficients of one frame element."""
    if p not in spec.stack.ps:
        raise ValueError(f"band {p} not in frame range {spec.p_range[0]}..{spec.p_range[-1]}")
    m = spec.k_count(p)
    if not 0 <= k < m:
        raise ValueError(f"slot k = {k} outside 0..{m - 1}")
    w = spec.width(p)
    j = spec.grid.frequencies()
    phase = np.exp(-2j * np.pi * j * k / m)
    return SpectralSignal(spec.grid, phase * spec.stack.band(p) / np.sqrt(w))


def analyze(spec: FrameSpec, f) -> FrameCoefficients:
    """<f, element_{p,k}> for every band: fold f^ Phi_p mod m on the
    records a chunk at a time, then one inverse DFT per run of equal
    period."""
    fhat = _as_spectrum(spec, f)
    g = spec.core
    rows = [row for c in g.chunks
            for row in _fold_runs(fhat[c.bins] * c.values, c.fold, c, 1, np.sqrt)]
    return FrameCoefficients(spec, dict(zip(g.ps, rows)))


def synthesize(spec: FrameSpec, coeffs: FrameCoefficients,
               bands: dict[int, np.ndarray] | None = None) -> SpectralSignal:
    """sum_k c_k element_k, over the analysis bands or a replacement family.

    One DFT per run of equal period spreads the coefficients; each band's
    spread lands on its extent only, and bands are added in the order of
    coeffs.data.  Another order gathers the stack records in that order;
    a replacement family gets records on its own nonzero extents.
    """
    ps = tuple(coeffs.data)
    g = spec.core
    if bands is not None:
        g = _family_records(spec, bands, ps)
    elif ps != g.ps:
        g = g.take(ps)
    acc = np.zeros(spec.grid.size, dtype=np.complex128)
    for c in g.chunks:
        _spread_runs(acc, [coeffs.data[p] for p in g.ps[c.bands]], c, c.fold, 1, np.sqrt)
    return SpectralSignal(spec.grid, acc)


def frame_operator_apply(spec: FrameSpec, f,
                         synthesis_bands: dict[int, np.ndarray] | None = None) -> SpectralSignal:
    """S f (or the mixed-window S_{phi,psi} f) through analysis + synthesis."""
    return synthesize(spec, analyze(spec, f), synthesis_bands)


def _shift_limit(g: BandRecords, psi: BandRecords) -> np.ndarray:
    """Per band, the largest |m| for which Phi_p(u - m q w_p) Psi_p(u) can
    be nonzero: shifts reach across the union of the two extents.  -1 for
    a band with an empty extent."""
    span = np.maximum(g.hi, psi.hi) - 1 - np.minimum(g.lo, psi.lo)
    return np.where((g.lo == g.hi) | (psi.lo == psi.hi), -1, span // g.m)


def _walnut_pairs(n: int, g: BandRecords, psi: BandRecords, first, last):
    """The shifts s = m q w_p with first[b] <= m <= last[b] and |s| < n.

    Returns (band, shift, lo, length) per pair, band-major in p order and
    m ascending within a band: Phi_p(u - s) Psi_p(u) can be nonzero only
    for lo <= u < lo + length.
    """
    step = g.m
    first = np.broadcast_to(first, step.shape)
    count = np.maximum(last - first + 1, 0)
    band = np.repeat(np.arange(step.size), count)
    shift = step[band] * _runs(first, count)
    keep = np.abs(shift) < n
    band, shift = band[keep], shift[keep]
    lo = np.maximum(psi.lo[band], g.lo[band] + shift)
    length = np.maximum(np.minimum(psi.hi[band], g.hi[band] + shift) - lo, 0)
    return band, shift, lo, length


def _walnut_terms(g: BandRecords, psi: BandRecords, band, shift, lo, length):
    """Yield the terms of the pairs, pair after pair, in chunks of whole
    pairs of about _TERM_CHUNK terms: (u, v = u - s, Phi_p(v), Psi_p(u),
    the chunk's pair lengths)."""
    for a, b in _chunks(length):
        sizes = length[a:b]
        u = _runs(lo[a:b], sizes)
        v = u - np.repeat(shift[a:b], sizes)
        rows = np.repeat(band[a:b], sizes)
        yield u, v, g.values[v + g.offset[rows]], psi.values[u + psi.offset[rows]], sizes


def _shift_maxima(g: BandRecords, n: int, k_max) -> tuple[np.ndarray, np.ndarray]:
    """(band, maximum) per pair (b, s = m q w_b), 1 <= m <= k_max, |s| < n,
    band-major: maximum = sup_u Phi_b(u - s) Phi_b(u) over the grid of
    size n.  Each maximum comes from a reduceat over the products on the
    extents, a chunk of shifts per call."""
    band, shift, lo, length = _walnut_pairs(n, g, g, 1, np.minimum(_shift_limit(g, g), k_max))
    # every pair has length >= 1: s <= hi - 1 - lo
    maxima = np.concatenate([np.zeros(0)] + [
        np.maximum.reduceat(pv * gv, np.cumsum(sizes) - sizes)
        for _, _, gv, pv, sizes in _walnut_terms(g, g, band, shift, lo, length)])
    # the sup over the grid also sees the zeros off a partial extent
    partial = (g.hi - g.lo)[band] < n
    return band, np.where(partial, np.maximum(maxima, 0.0), maxima)


def walnut_apply(spec: FrameSpec, f,
                 synthesis_bands: dict[int, np.ndarray] | None = None,
                 k_max: int | None = None,
                 with_dropped_mass: bool = False):
    """Direct evaluation of the shift-sum representation of S f.

    k_max = None keeps every shift that can touch the grid (exact equality
    with frame_operator_apply up to round-off); an explicit k_max truncates
    the aliasing sum for decay studies.  Shifted content leaving the grid
    is dropped; with_dropped_mass=True also returns the l2 mass of what
    was dropped.

    Every term (f^ Phi_p)(u - s) Psi_p(u) is added into bin u in (p, m)
    order, as a dense loop over bands and shifts would add it; terms off
    either extent are zero and left out.
    """
    fhat = _as_spectrum(spec, f)
    g = spec.records
    psi = g if synthesis_bands is None else _family_records(spec, synthesis_bands, g.ps)
    limit = _shift_limit(g, psi)
    if k_max is not None:
        limit = np.minimum(limit, k_max)
    n = spec.grid.size
    pairs = _walnut_pairs(n, g, psi, -limit, limit)
    acc = np.zeros(n, dtype=np.complex128)
    for u, v, gv, pv, _ in _walnut_terms(g, psi, *pairs):
        np.add.at(acc, u, fhat[v] * gv * pv)
    result = SpectralSignal(spec.grid, spec.q * acc)
    if not with_dropped_mass:
        return result
    # sum each lost slice whole, as pairwise summation depends on its
    # length; a slice off the band's extent sums to exactly 0.0
    band, shift = pairs[0], pairs[1]
    lost = np.where(shift > 0, g.hi[band] > n - shift, g.lo[band] < -shift)
    dropped, last = 0.0, -1
    for b, s in zip(band[lost].tolist(), shift[lost].tolist()):
        if b != last:
            last, mass = b, np.abs(fhat * spec.stack.band(g.ps[b])) ** 2
        dropped += float(np.sum(mass[n - s:] if s > 0 else mass[:-s]))
    return result, math.sqrt(dropped)


@dataclass(frozen=True)
class WalnutBoundReport:
    """Certified frame-bound estimates from the shift-sum representation."""

    h0_inf: float
    h0_sup: float
    h_tail: float
    nu: float
    k_max: int

    @property
    def lower(self) -> float:
        return max(0.0, (self.h0_inf - self.h_tail) / self.nu)

    @property
    def upper(self) -> float:
        return (self.h0_sup + self.h_tail) / self.nu


def walnut_bounds(spec: FrameSpec, k_max: int | None = None) -> WalnutBoundReport:
    """Bound the frame operator by H0 extremes and the aliasing tail.

    The default k_max follows the spec's ceil(n / 2q); shifts whose
    products vanish identically are skipped either way, so enlarging
    k_max past the grid edge changes nothing.  The shift maxima
    (_shift_maxima) add into h_tail in (p, m) order.
    """
    if k_max is None:
        k_max = spec.walnut_k_max
    h0 = spec.h0
    _, maxima = _shift_maxima(spec.records, spec.grid.size, k_max)
    # the sup is shift-sign symmetric; count both signs
    h_tail = float(np.add.accumulate(np.concatenate([[0.0], 2.0 * maxima]))[-1])
    return WalnutBoundReport(float(h0.min()), float(h0.max()), h_tail,
                             spec.nu, int(k_max))


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    method: str


def frame_bounds_eigen(spec: FrameSpec) -> FrameBounds:
    """Exact bounds as extreme eigenvalues of the dense frame operator.

    The operator is assembled from its Walnut kernel,
    S[u, v] = q sum_p Phi_p(u) Phi_p(v) [u = v mod q w_p]: each band adds
    the products of its values on its extent at every multiple of its
    period.  Grids above EIGEN_SIZE_CAP are refused.
    """
    n = spec.grid.size
    if n > EIGEN_SIZE_CAP:
        raise ValueError(f"dense eigenbounds capped at n = {EIGEN_SIZE_CAP}, got {n}")
    g = spec.records
    limit = _shift_limit(g, g)
    mat = np.zeros(n * n)
    for u, v, gv, pv, _ in _walnut_terms(g, g, *_walnut_pairs(n, g, g, -limit, limit)):
        np.add.at(mat, u * n + v, pv * gv)
    mat = spec.q * mat.reshape(n, n)
    asym = float(np.max(np.abs(mat - mat.T)))
    scale = float(np.max(np.abs(mat))) or 1.0
    if asym > 1e-8 * scale:
        raise RuntimeError(f"frame operator failed the self-adjointness check: {asym:g}")
    eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    return FrameBounds(float(eigs[0]), float(eigs[-1]), "eigen")


def _duals(chunks, h0: np.ndarray, nu: float):
    """Yield (chunk, Omega = nu Phi / H0 at its bins, read-only) per chunk
    of a family, on the flat grid of h0."""
    for c in chunks:
        dual = nu * c.values / h0[c.bins]
        dual.flags.writeable = False
        yield c, dual


def _held_duals(chunks, h0: np.ndarray, nu: float) -> tuple[np.ndarray, ...]:
    """The dual at the bins of each chunk (_duals), for a spec to hold."""
    return tuple(dual for _, dual in _duals(chunks, h0, nu))


@dataclass
class ConjugateFilter:
    """Canonical dual bands Omega_p = nu Phi_p / H0 and the H0 it came from.

    Dense dual bands are built on demand; reconstruct reads the dual on
    the core chunks (chunks).
    """

    spec: FrameSpec = field(repr=False)
    h0: np.ndarray = field(repr=False)

    def band(self, p: int) -> np.ndarray:
        return self.spec.nu * self.spec.stack.band(p) / self.h0

    @cached_property
    def bands(self) -> dict[int, np.ndarray]:
        return {p: self.band(p) for p in self.spec.stack.ps}

    def chunks(self):
        """(chunk, dual) per core chunk: the spec's held duals for its
        own H0, else the dual of this h0 formed a chunk at a time."""
        spec = self.spec
        if self.h0 is spec.h0:
            return zip(spec.core.chunks, spec.duals)
        return _duals(spec.core.chunks, self.h0, spec.nu)

    def partition_residual(self) -> float:
        """max_j |sum_p Omega_p Phi_p - nu|, zero to round-off by construction;
        each bin adds its products in the stack's band order."""
        st, nu = self.spec.stack, self.spec.nu
        bins = _runs(st.lo, st.hi - st.lo)
        return _dual_residual([(bins, st.values, nu * st.values / self.h0[bins])], self.h0.size, nu)


def _dual_residual(records, size: int, nu: float) -> float:
    """max |sum Omega Phi - nu| over a flat grid of size bins, for a family
    held as records (bins, Phi, Omega there): each bin adds its products
    in record order."""
    acc = np.zeros(size)
    for bins, values, dual in records:
        np.add.at(acc, bins, dual * values)
    return float(np.max(np.abs(acc - nu)))


def _check_gap(h0: np.ndarray, half: int, floor: float) -> None:
    """Raise FrameGapError if H0 (on a grid of any dimension, bin u at
    frequency u - half per axis) reaches floor; the message names the
    worst frequency, an integer in 1D and a tuple in n-D."""
    low = float(h0.min())
    if low <= floor:
        worst = tuple(int(u) - half for u in np.unravel_index(int(np.argmin(h0)), h0.shape))
        raise FrameGapError(
            f"stack sum of squares reaches {low:.3e} <= {floor:g} "
            f"(worst at frequency {worst[0] if h0.ndim == 1 else worst}); "
            "the system is not a frame on this grid"
        )


def conjugate_filter(spec: FrameSpec, floor: float = H0_FLOOR) -> ConjugateFilter:
    _check_gap(spec.h0, spec.grid.half, floor)
    return ConjugateFilter(spec, spec.h0)


def _reconstruct(fhat: np.ndarray, chunks, q) -> np.ndarray:
    """sum q Phi fold_m(f^ Omega)[fold] over the bands of the (chunk,
    dual Omega) pairs, a chunk at a time: the reconstruction of the 1D
    and n-D frames (flat grids, q raised to the dimension)."""
    acc = np.zeros(fhat.size, dtype=np.complex128)
    for c, dual in chunks:
        np.add.at(acc, c.bins, q * c.values * _fold(fhat[c.bins] * dual, c.fold, c.size)[c.fold])
    return acc


def reconstruct(spec: FrameSpec, f,
                conj: ConjugateFilter | None = None) -> tuple[SpectralSignal, float]:
    """Analyze against the conjugate family, synthesize with the analysis one.

    The FFT pair cancels (module docstring), so no coefficients are formed.
    Returns (reconstruction, relative l2 error against the input).
    """
    fhat = _as_spectrum(spec, f)
    if conj is None:
        conj = conjugate_filter(spec)
    acc = _reconstruct(fhat, conj.chunks(), spec.q)
    rec = SpectralSignal(spec.grid, acc)
    scale = float(np.linalg.norm(fhat)) or 1.0
    rel_err = float(np.linalg.norm(rec.coeffs - fhat)) / scale
    return rec, rel_err

