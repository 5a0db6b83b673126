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
(w, m, hi - lo) form one batch of a `BandPlan`, and analysis, synthesis,
the frame operator and reconstruction cost a fixed number of numpy calls
per batch: gather f^ on the extents, multiply by the window or dual
values, fold mod m with one bincount, one (inverse) FFT along the batch,
gather the spread, and one bincount that adds every contribution into
the grid.  The outputs equal the dense per-band evaluation bit for bit
because every bin receives the same additions in the same order: folds
in ascending frequency, synthesis in coefficient (ascending p) order and
H0 in stack.bands order.  Bins outside an extent would only receive
+0.0, which changes no sum.
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
        since the Walnut bounds and single elements never need it."""
        return _band_plan(self, self.p_range, self.stack.bands, self.stack.extents)


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


def _shift(values: np.ndarray, s: int) -> np.ndarray:
    # T_s in bins with zero fill: out[u] = values[u - s]
    out = np.zeros_like(values)
    if s == 0:
        out[:] = values
    elif s > 0:
        out[s:] = values[:-s]
    else:
        out[:s] = values[-s:]
    return out


def _band_shift_limit(spec: FrameSpec, p: int, k_max: int | None,
                      psi: np.ndarray | None = None) -> int:
    """Largest |m| whose shifted product can be nonzero for band p.

    With a synthesis band psi of different support, the overlap window
    widens to the union of the two extents.
    """
    lo, hi = spec.stack.extents[p]
    if lo == hi:
        return -1
    if psi is not None and psi is not spec.stack.bands[p]:
        plo, phi = nonzero_extent(psi)
        if plo == phi:
            return -1
        lo, hi = min(lo, plo), max(hi, phi)
    step = spec.q * spec.width(p)
    limit = (hi - 1 - lo) // step
    if k_max is not None:
        limit = min(limit, k_max)
    return limit


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
    """
    fhat = _as_spectrum(spec, f)
    if synthesis_bands is None:
        synthesis_bands = spec.stack.bands
    acc = np.zeros(spec.grid.size, dtype=np.complex128)
    dropped = 0.0
    n = spec.grid.size
    for p in spec.p_range:
        gband = spec.stack.bands[p]
        psi = synthesis_bands[p]
        base = fhat * np.conj(gband)
        step = spec.q * spec.width(p)
        limit = _band_shift_limit(spec, p, k_max, psi)
        for m in range(-limit, limit + 1):
            s = m * step
            if abs(s) >= n:
                continue
            acc += _shift(base, s) * psi
            if with_dropped_mass and s != 0:
                lost = base[n - s:] if s > 0 else base[:-s]
                dropped += float(np.sum(np.abs(lost) ** 2))
    result = SpectralSignal(spec.grid, spec.q * acc)
    if with_dropped_mass:
        return result, math.sqrt(dropped)
    return result


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
    k_max past the grid edge changes nothing.
    """
    if k_max is None:
        k_max = spec.walnut_k_max
    h0 = spec.stack.sum_of_squares()
    h_tail = 0.0
    n = spec.grid.size
    for p in spec.p_range:
        gband = spec.stack.bands[p]
        step = spec.q * spec.width(p)
        limit = _band_shift_limit(spec, p, k_max)
        for m in range(1, limit + 1):
            s = m * step
            if s >= n:
                break
            # sup_j |Phi(j-s) Phi(j)| is shift-sign symmetric; count both.
            h_tail += 2.0 * float(np.max(gband[s:] * gband[:-s]))
    return WalnutBoundReport(float(h0.min()), float(h0.max()), h_tail,
                             spec.nu, int(k_max))


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    method: str


def frame_bounds_eigen(spec: FrameSpec) -> FrameBounds:
    """Exact bounds as extreme eigenvalues of the dense frame operator.

    The operator matrix is built column by column by applying S to every
    spectral basis vector; grids above EIGEN_SIZE_CAP are refused.
    """
    n = spec.grid.size
    if n > EIGEN_SIZE_CAP:
        raise ValueError(f"dense eigenbounds capped at n = {EIGEN_SIZE_CAP}, got {n}")
    mat = np.empty((n, n), dtype=np.complex128)
    for col in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[col] = 1.0
        mat[:, col] = frame_operator_apply(spec, SpectralSignal(spec.grid, e)).coeffs
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    scale = float(np.max(np.abs(mat))) or 1.0
    if asym > 1e-8 * scale:
        raise RuntimeError(f"frame operator failed the self-adjointness check: {asym:g}")
    eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
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
    plan = spec.plan
    parts = []
    for b in plan.batches:
        folded = _fold(b, fhat[b.bins] * (spec.nu * b.values / conj.h0[b.bins]))
        parts.append(spec.q * b.values.ravel() * folded[b.fold])
    rec = SpectralSignal(spec.grid, _scatter(plan, parts, spec.grid.size))
    scale = float(np.linalg.norm(fhat)) or 1.0
    rel_err = float(np.linalg.norm(rec.coeffs - fhat)) / scale
    return rec, rel_err
