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

Each band is held as a record: its nonzero extent [lo, hi) in grid bins,
its values there, its width w and its period m = q*w.  Records of equal
(w, m, hi - lo) form one batch of a `BandPlan`, and analysis, synthesis
and the frame operator cost a fixed number of numpy calls per batch:
gather f^ on the extents, multiply by the window values, fold mod m with
one bincount, one (inverse) FFT along the batch, gather the spread, and
one bincount that adds every contribution into the grid.  The outputs
equal the dense per-band evaluation bit for bit because every bin
receives the same additions in the same order: folds in ascending
frequency, synthesis in coefficient (ascending p) order and H0 in
stack.bands order.  Bins outside an extent would only receive +0.0,
which changes no sum.

Reconstruction, the Walnut paths and the eigen operator need no FFT, so
they read the records in p order (`FrameSpec.records`), a few thousand
bins or terms at a time; their temporaries stay small whatever the grid.
`reconstruct` folds each band's f^ Omega_p and adds q Phi_p times the
fold into the grid band after band.  A band's shifted product
Phi_p(u - s) Psi_p(u) is nonzero only where both extents meet, so
`walnut_apply`, `walnut_bounds` and `frame_bounds_eigen` enumerate every
(band, shift) pair and its overlap once, in (p, m) order.  `walnut_apply`
adds the terms into each bin in that order and `walnut_bounds` takes
every shift's maximum with one reduceat, so both equal a dense loop over
bands and shifts bit for bit.  `frame_bounds_eigen` assembles the
operator from its Walnut kernel

    S[u, v] = q * sum_p Phi_p(u) Phi_p(v) [u = v mod q*width_p],

which adds each band's products on its extent at every multiple of its
period; it agrees with the analysis + synthesis operator to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .partition import AlphaPartition
from .spectral import FrequencyGrid, SpectralSignal, TimeSamples, to_spectrum
from .window import Window, WindowStack, build_stack, nonzero_extent

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
# Reconstruction and the Walnut paths form this many bins or terms at a
# time (rounded to whole bands or shifts): their temporaries stay small
# and cache-resident on any grid, and never depend on how the allocator
# serves large blocks.
_TERM_CHUNK = 1 << 12


class FrameGapError(ValueError):
    """The stack leaves a spectral hole; no conjugate filter exists."""


@dataclass
class BandBatch:
    """Band records of equal width w, period m = q*w and extent length.

    Row i describes band ps[i]: bins[i] are the grid bins lo .. hi-1 of
    its nonzero extent and values[i] the band on them.  fold[i*L + t] =
    i*m + (j mod m) for the frequency j of bins[i, t], the slot that bin
    folds into and spreads from; slots[2u], slots[2u + 1] = 2 fold[u],
    2 fold[u] + 1 are its real and imaginary parts in a float view.
    """

    ps: tuple[int, ...]
    w: int
    m: int
    bins: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    fold: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)


@dataclass
class BandPlan:
    """Batches of one band family, and the order that adds them up.

    ps is the order in which synthesis adds bands into the grid.  order
    gathers the batch-major concatenation of per-bin contributions into
    that order, and scatter[2u], scatter[2u + 1] are the real and
    imaginary output slots of the u-th gathered contribution.
    """

    ps: tuple[int, ...]
    batches: tuple[BandBatch, ...] = field(repr=False)
    order: np.ndarray = field(repr=False)
    scatter: np.ndarray = field(repr=False)


def _band_plan(spec: FrameSpec, ps, family: dict[int, np.ndarray],
               extents: dict[int, tuple[int, int]]) -> BandPlan:
    """Group the bands ps of a family into batches of equal (w, m, hi - lo)."""
    ps = tuple(ps)
    lo = np.array([extents[p][0] for p in ps], dtype=np.int64)
    length = np.array([extents[p][1] for p in ps], dtype=np.int64) - lo
    w = np.array([spec.width(p) for p in ps], dtype=np.int64)
    # batch-major band order: sorted by (w, length), m = q*w following w
    key = w * (spec.grid.size + 1) + length
    srt = np.argsort(key, kind="stable")
    edges = np.flatnonzero(np.diff(key[srt], prepend=-1, append=-1))
    lo, length, w = lo[srt], length[srt], w[srt]
    m = spec.q * w
    bins = _runs(lo, length)
    row = np.arange(len(ps)) - np.repeat(edges[:-1], np.diff(edges))
    fold = (np.repeat(row * m, length)
            + (bins - spec.grid.half) % np.repeat(m, length))
    slots = _interleave(fold)
    members = [ps[i] for i in srt.tolist()]
    values = np.concatenate([family[p][slice(*extents[p])] for p in members] + [np.zeros(0)])
    first = np.cumsum(length) - length
    batches = []
    for e0, e1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
        rows, size, c0 = e1 - e0, int(length[e0]), int(first[e0])
        c1 = c0 + rows * size
        batches.append(BandBatch(tuple(members[e0:e1]), int(w[e0]), int(m[e0]),
                                 bins[c0:c1].reshape(rows, size),
                                 values[c0:c1].reshape(rows, size),
                                 fold[c0:c1], slots[2 * c0:2 * c1]))
    back = np.empty_like(srt)
    back[srt] = np.arange(len(ps))
    order = _runs(first[back], length[back])
    return BandPlan(ps, tuple(batches), order, _interleave(bins[order]))


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated integer ranges starts[i] .. starts[i] + lengths[i] - 1."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _interleave(index: np.ndarray) -> np.ndarray:
    """Float-view slots 2u, 2u + 1 of the complex slots u."""
    return (2 * index[:, None] + np.arange(2)).ravel()


def _chunks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Runs [a, b) of consecutive items holding about _TERM_CHUNK
    elements each; an item is never split."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_TERM_CHUNK, total, _TERM_CHUNK), side="right").tolist()
    return list(zip([0, *cuts], [*cuts, lengths.size]))


@dataclass
class BandRecords:
    """Nonzero extents [lo, hi) of a band family, one per band in p order,
    and their values concatenated: band b holds values[u + offset[b]] at
    bin u of its extent."""

    lo: np.ndarray
    hi: np.ndarray
    offset: np.ndarray
    values: np.ndarray


def _records(spec: FrameSpec, family: dict[int, np.ndarray],
             extents: dict[int, tuple[int, int]] | None = None) -> BandRecords:
    ps = spec.p_range
    spans = [nonzero_extent(family[p]) if extents is None else extents[p] for p in ps]
    lo, hi = np.array(spans, dtype=np.int64).T
    values = np.concatenate([family[p][a:b] for p, (a, b) in zip(ps, spans)] + [np.zeros(0)])
    return BandRecords(lo, hi, np.cumsum(hi - lo) - hi, values)


@dataclass
class FoldChunk:
    """Bands consecutive in p order whose extents hold about _TERM_CHUNK
    bins, as records.values[start:stop].

    bins are the grid bins of those values, band after band; fold is the
    slot each bin folds into and spreads from (its band's slot base plus
    j mod m), and slots[2u], slots[2u + 1] = 2 fold[u], 2 fold[u] + 1 its
    real and imaginary parts in a float view of size entries.
    """

    start: int
    stop: int
    bins: np.ndarray = field(repr=False)
    fold: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    size: int


def _fold_chunks(spec: FrameSpec) -> tuple[FoldChunk, ...]:
    g = spec.records
    length = g.hi - g.lo
    edges = np.concatenate([[0], np.cumsum(length)])
    chunks = []
    for a, b in _chunks(length):
        bins = _runs(g.lo[a:b], length[a:b])
        m = spec.periods[a:b]
        fold = (np.repeat(np.cumsum(m) - m, length[a:b])
                + (bins - spec.grid.half) % np.repeat(m, length[a:b]))
        chunks.append(FoldChunk(int(edges[a]), int(edges[b]), bins, fold,
                                _interleave(fold), 2 * int(m.sum())))
    return tuple(chunks)


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
        return self.partition.interval(p).width

    def k_count(self, p: int) -> int:
        return self.q * self.width(p)

    @cached_property
    def plan(self) -> BandPlan:
        """The stack bands batched and added in p order; built on first use,
        since only analysis and synthesis need it."""
        return _band_plan(self, self.p_range, self.stack.bands, self.stack.extents)

    @cached_property
    def records(self) -> BandRecords:
        """The stack bands' extents and values in p order, read by
        reconstruct and the Walnut paths; built on first use."""
        return _records(self, self.stack.bands, self.stack.extents)

    @cached_property
    def fold_chunks(self) -> tuple[FoldChunk, ...]:
        """The records cut into runs of whole bands for reconstruct; built
        on first use."""
        return _fold_chunks(self)

    @cached_property
    def periods(self) -> np.ndarray:
        """Period m = q*w of every band, in p order."""
        return self.q * np.array([self.width(p) for p in self.p_range], dtype=np.int64)


def make_frame_spec(window: Window, mu: float, q: int, alpha, n: int,
                    walnut_k_max: int | None = None) -> FrameSpec:
    """Build the stack and bookkeeping for a frame on a grid of size n."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"q must be a positive integer, got {q!r}")
    stack = build_stack(window, mu, alpha, n)
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
    if p not in spec.stack.bands:
        raise ValueError(f"band {p} not in frame range {spec.p_range[0]}..{spec.p_range[-1]}")
    m = spec.k_count(p)
    if not 0 <= k < m:
        raise ValueError(f"slot k = {k} outside 0..{m - 1}")
    w = spec.width(p)
    j = spec.grid.frequencies()
    phase = np.exp(-2j * np.pi * j * k / m)
    return SpectralSignal(spec.grid, phase * spec.stack.bands[p] / np.sqrt(w))


def _fold(b: BandBatch, x: np.ndarray) -> np.ndarray:
    """Fold the batch's extent values x mod m, rows one after another.

    The real and imaginary parts fold through one bincount over the
    interleaved float view, each slot in ascending frequency.
    """
    return np.bincount(b.slots, x.ravel().view(np.float64),
                       2 * len(b.ps) * b.m).view(np.complex128)


def _scatter(plan: BandPlan, parts: list[np.ndarray], n: int) -> np.ndarray:
    """Add the batches' flattened contributions into the grid, every bin
    receiving its contributions in plan.ps order."""
    contrib = np.concatenate([np.zeros(0, np.complex128), *parts])[plan.order]
    return np.bincount(plan.scatter, contrib.view(np.float64), 2 * n).view(np.complex128)


def analyze(spec: FrameSpec, f) -> FrameCoefficients:
    """<f, element_{p,k}> for every band: fold f^ Phi_p mod m, then one
    inverse DFT per batch."""
    fhat = _as_spectrum(spec, f)
    plan = spec.plan
    rows: dict[int, np.ndarray] = {}
    for b in plan.batches:
        folded = _fold(b, fhat[b.bins] * b.values).reshape(len(b.ps), b.m)
        rows.update(zip(b.ps, b.m * np.fft.ifft(folded, axis=1) / np.sqrt(b.w)))
    return FrameCoefficients(spec, {p: rows[p] for p in plan.ps})


def synthesize(spec: FrameSpec, coeffs: FrameCoefficients,
               bands: dict[int, np.ndarray] | None = None) -> SpectralSignal:
    """sum_k c_k element_k, over the analysis bands or a replacement family.

    Each band's spread lands on its extent only, and bands are added in
    the order of coeffs.data; a replacement family is batched over its own
    nonzero extents.
    """
    ps = tuple(coeffs.data)
    if bands is None and ps == spec.plan.ps:
        plan = spec.plan
    else:
        family = spec.stack.bands if bands is None else bands
        extents = (spec.stack.extents if bands is None
                   else {p: nonzero_extent(family[p]) for p in ps})
        plan = _band_plan(spec, ps, family, extents)
    parts = []
    for b in plan.batches:
        spread = np.fft.fft(np.array([coeffs.data[p] for p in b.ps]), axis=1).ravel()[b.fold]
        parts.append(b.values.ravel() * spread / np.sqrt(b.w))
    return SpectralSignal(spec.grid, _scatter(plan, parts, spec.grid.size))


def frame_operator_apply(spec: FrameSpec, f,
                         synthesis_bands: dict[int, np.ndarray] | None = None) -> SpectralSignal:
    """S f (or the mixed-window S_{phi,psi} f) through analysis + synthesis."""
    return synthesize(spec, analyze(spec, f), synthesis_bands)


def _shift_limit(spec: FrameSpec, g: BandRecords, psi: BandRecords) -> np.ndarray:
    """Per band, the largest |m| for which Phi_p(u - m q w_p) Psi_p(u) can
    be nonzero: shifts reach across the union of the two extents.  -1 for
    a band with an empty extent."""
    span = np.maximum(g.hi, psi.hi) - 1 - np.minimum(g.lo, psi.lo)
    return np.where((g.lo == g.hi) | (psi.lo == psi.hi), -1, span // spec.periods)


def _walnut_pairs(spec: FrameSpec, g: BandRecords, psi: BandRecords, first, last):
    """The shifts s = m q w_p with first[b] <= m <= last[b] and |s| < n.

    Returns (band, shift, lo, length) per pair, band-major in p order and
    m ascending within a band: Phi_p(u - s) Psi_p(u) can be nonzero only
    for lo <= u < lo + length.
    """
    step = spec.periods
    first = np.broadcast_to(first, step.shape)
    count = np.maximum(last - first + 1, 0)
    band = np.repeat(np.arange(step.size), count)
    shift = step[band] * _runs(first, count)
    keep = np.abs(shift) < spec.grid.size
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
    psi = g if synthesis_bands is None else _records(spec, synthesis_bands)
    limit = _shift_limit(spec, g, psi)
    if k_max is not None:
        limit = np.minimum(limit, k_max)
    pairs = _walnut_pairs(spec, g, psi, -limit, limit)
    n = spec.grid.size
    acc = np.zeros(n, dtype=np.complex128)
    for u, v, gv, pv, _ in _walnut_terms(g, psi, *pairs):
        np.add.at(acc, u, fhat[v] * gv * pv)
    result = SpectralSignal(spec.grid, spec.q * acc)
    if not with_dropped_mass:
        return result
    dropped = 0.0
    ps = spec.p_range
    for b, s in zip(pairs[0].tolist(), pairs[1].tolist()):
        if s != 0:
            base = fhat * spec.stack.bands[ps[b]]
            lost = base[n - s:] if s > 0 else base[:-s]
            dropped += float(np.sum(np.abs(lost) ** 2))
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
    k_max past the grid edge changes nothing.  Each shift's maximum comes
    from a reduceat over its products on the extents, a chunk of shifts
    per call, and adds into h_tail in (p, m) order.
    """
    if k_max is None:
        k_max = spec.walnut_k_max
    h0 = spec.stack.sum_of_squares()
    g = spec.records
    limit = _shift_limit(spec, g, g)
    band, shift, lo, length = _walnut_pairs(spec, g, g, 1, np.minimum(limit, k_max))
    # every pair has length >= 1: s <= hi - 1 - lo
    maxima = np.concatenate([np.maximum.reduceat(pv * gv, np.cumsum(sizes) - sizes)
                             for _, _, gv, pv, sizes in _walnut_terms(g, g, band, shift, lo, length)])
    # sup_j |Phi(j-s) Phi(j)| over the grid also sees the zeros off a
    # partial extent
    partial = (g.hi - g.lo)[band] < spec.grid.size
    maxima = np.where(partial, np.maximum(maxima, 0.0), maxima)
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
    limit = _shift_limit(spec, g, g)
    mat = np.zeros(n * n)
    for u, v, gv, pv, _ in _walnut_terms(g, g, *_walnut_pairs(spec, g, g, -limit, limit)):
        np.add.at(mat, u * n + v, pv * gv)
    mat = spec.q * mat.reshape(n, n)
    asym = float(np.max(np.abs(mat - mat.T)))
    scale = float(np.max(np.abs(mat))) or 1.0
    if asym > 1e-8 * scale:
        raise RuntimeError(f"frame operator failed the self-adjointness check: {asym:g}")
    eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    return FrameBounds(float(eigs[0]), float(eigs[-1]), "eigen")


@dataclass
class ConjugateFilter:
    """Canonical dual bands Omega_p = nu Phi_p / H0 and the H0 it came from.

    Dense dual bands are built on demand; reconstruct reads only h0.
    """

    spec: FrameSpec = field(repr=False)
    h0: np.ndarray = field(repr=False)

    def band(self, p: int) -> np.ndarray:
        return self.spec.nu * self.spec.stack.bands[p] / self.h0

    @cached_property
    def bands(self) -> dict[int, np.ndarray]:
        return {p: self.band(p) for p in self.spec.stack.bands}

    def partition_residual(self) -> float:
        """max_j |sum_p Omega_p Phi_p - nu|; zero to round-off by construction."""
        acc = np.zeros(self.spec.grid.size)
        for p, om in self.bands.items():
            acc += om * self.spec.stack.bands[p]
        return float(np.max(np.abs(acc - self.spec.nu)))


def conjugate_filter(spec: FrameSpec, floor: float = H0_FLOOR) -> ConjugateFilter:
    h0 = spec.stack.sum_of_squares()
    low = float(h0.min())
    if low <= floor:
        hole = spec.grid.frequencies()[int(np.argmin(h0))]
        raise FrameGapError(
            f"stack sum of squares reaches {low:.3e} <= {floor:g} "
            f"(worst at frequency {hole}); the system is not a frame on this grid"
        )
    return ConjugateFilter(spec, h0)


def reconstruct(spec: FrameSpec, f,
                conj: ConjugateFilter | None = None) -> tuple[SpectralSignal, float]:
    """Analyze against the conjugate family, synthesize with the analysis one.

    The FFT pair cancels (module docstring), so no coefficients are formed.
    Returns (reconstruction, relative l2 error against the input).
    """
    fhat = _as_spectrum(spec, f)
    if conj is None:
        conj = conjugate_filter(spec)
    acc = np.zeros(spec.grid.size, dtype=np.complex128)
    for c in spec.fold_chunks:
        values = spec.records.values[c.start:c.stop]
        x = fhat[c.bins] * (spec.nu * values / conj.h0[c.bins])
        folded = np.bincount(c.slots, x.view(np.float64), c.size).view(np.complex128)
        np.add.at(acc, c.bins, spec.q * values * folded[c.fold])
    rec = SpectralSignal(spec.grid, acc)
    scale = float(np.linalg.norm(fhat)) or 1.0
    rel_err = float(np.linalg.norm(rec.coeffs - fhat)) / scale
    return rec, rel_err
