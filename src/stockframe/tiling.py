"""Dyadic box tilings of Z^d and the separable frames built on them.

The 1D dyadic partition generalizes by coronae: at level p >= 1 the cube
[-2b, 2b)^d with b = 2**(p-1) splits into 4^d boxes of side b indexed by
ell in {-2,-1,0,1}^d, box_s = [ell_s b, (ell_s+1) b).  The 2^d boxes with
every ell_s in {-1, 0} reproduce the inner cube [-b, b)^d and belong to
finer levels, so level p keeps the 4^d - 2^d = 2^d (2^d - 1) admissible
boxes that tile the shell [-2b, 2b)^d minus [-b, b)^d.  One DC box
[-1, 1)^d with integer lattice {-1, 0}^d plugs the center.  Levels
1..p_max plus DC tile Z^d intersect [-2^p_max, 2^p_max)^d exactly, each
point in exactly one box.

The frame attaches to each box the separable window stack

    Phi_box(omega) = prod_s F_{p,ell_s}(omega_s),
    F_{p,l}(x) = sum_{eta = l b}^{(l+1) b - 1} window(x - mu eta),

with per-axis modulation period m = q b (q translations per lattice node
and axis).  The DC box gets unit normalization, q translations per axis
and shift unit q.  Elements, the Walnut shift sum, certified bounds and
the conjugate-filter dual all mirror the 1D case with nu^d in place of
nu; per-axis separability makes the tail sups factor exactly:

    sup_j prod_s F(j_s - s_s) F(j_s) = prod_s sup_x F(x - s_s) F(x).

Only alpha = 1 admits this construction; the fractional partitions lack
a self-similar corona.

Each axis factor F_{p,e} is a frame1d band record (extent and values) of
width w = b and period m = q b, capped at n as a longer period admits no
shift on the grid (box_period keeps q b; DC: w = 1, m = q).  H0, the
tail bound and the dual residual read the full factors, the Walnut sum
and the eigen kernel the core ones (narrower extents over the same
values), as analysis and synthesis do; H0 adds axis by axis (frame1d
module docstring), round-off equal to a sum box by box.  A tiling lists
1 + p_max (4^d - 2^d) boxes, refused past TILE_CAP before any is listed.

A box is a band of frame1d's engine at dimension d (frame1d module
docstring), a box shift the product of factor shifts: NdFrameSpec shares
its H0, records, core, chunks, held split, elements, analysis,
synthesis, Walnut sum, tail bound, eigenbounds, conjugate filter and
round trip with the 1D frame (a 1D band is the d = 1 case); each reads
only the spec's own box records, and the spec keeps only its
construction.  Its chunks hold the C-order bins of each box's core
support (the product of its core factors' extents: a box sample off it
has a dropped factor, so is below TAU peak^d), the outer product of the
factor values there and a compact fold slot per bin; those analysis and
synthesis read also a placement slot per bin, where the blocks of all
boxes fit COEFF_CAP.  A Gaussian family at d = 3, n = 32 has 0.22M to
0.55M core box bins for mu from 3 down to 0.1, against 3.0M to 11.7M on
the full factors; a compact window keeps whole extents, 1.46M core bins
for table_window([-8, 0, 8], [0, 1, 0]) at mu = 0.5; the spec holds
them by frame1d's one hold rule, at any size.  With the dual Omega =
nu^d Phi / H0 and normalization b^d (m^d / b^d = q^d, DC too), analysis
then synthesis is fftn(ifftn(x)) = x, so reconstruction is

    rec_box(j) = q^d Phi_box(j) fold_m(f^ Omega_box)[j mod m],

taken as frame1d's multiplier plus aliasing fold: D f^, D = q^d sum
Phi Omega over every (box, bin) alone in its compact-fold slot in box
order, then box by box the slots of two or more bins, each summing in C
order over the support: round-off equal, not bit-equal, to a fold axis
by axis.  All else but H0 adds as a dense per-box loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .frame1d import (BandRecords, ConjugateFilter, WalnutBoundReport, _analyze, _BoxFrame, _element,
                      _on_grid, _round_trip, _synthesize, _walnut_sum, conjugate_filter, walnut_bounds)
from .window import Window, _check_reach, _lattice_budget, _lattice_reach, _runs, lattice_records

__all__ = [
    "BoxIndex",
    "NdTiling",
    "admissible_ells",
    "build_tiling",
    "NdFrameSpec",
    "make_nd_frame_spec",
    "to_spectrum_nd",
    "from_spectrum_nd",
    "element_nd",
    "analyze_nd",
    "synthesize_nd",
    "frame_operator_apply_nd",
    "walnut_apply_nd",
    "NdBoundReport",
    "walnut_bounds_nd",
    "NdConjugate",
    "conjugate_filter_nd",
    "reconstruct_nd",
]


def to_spectrum_nd(values: np.ndarray) -> np.ndarray:
    """Forward transform per the 1D convention on every axis (1/n^d factor)."""
    return np.fft.fftshift(np.fft.fftn(values)) / values.size


def from_spectrum_nd(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of to_spectrum_nd; carries no factor.  The inverse FFT and
    the factor run in place on the shift's copy (of the dtype np.fft.ifftn
    returns)."""
    values = np.fft.ifftshift(coeffs).astype(np.result_type(coeffs.dtype, 1j), copy=False)
    np.fft.ifftn(values, out=values)
    values *= coeffs.size
    return values

AXIS_CAP = {1: 4096, 2: 256, 3: 32}
# deepest corona: the lattice starts +-2^p of every factor stay in int64
P_MAX_CAP = 62
# boxes a tiling lists: d = 8 at p_max = 1 (65,281) is the largest table
TILE_CAP = 1 << 16


@dataclass(frozen=True)
class BoxIndex:
    """One tile: level p and corner index ell; ell = None is the DC box."""

    p: int
    ell: tuple[int, ...] | None

    def __str__(self) -> str:
        if self.ell is None:
            return "DC"
        return f"p={self.p},ell=({','.join(str(e) for e in self.ell)})"


def admissible_ells(d: int) -> list[tuple[int, ...]]:
    """Corner indices of the shell boxes, lexicographic order."""
    return [ell for ell in product((-2, -1, 0, 1), repeat=d)
            if any(e in (-2, 1) for e in ell)]


@dataclass(frozen=True)
class NdTiling:
    d: int
    p_max: int
    boxes: tuple[BoxIndex, ...]

    def scale(self, box: BoxIndex) -> int:
        """Box side length: 2**(p-1), or 2 for the DC box."""
        if box.ell is None:
            return 2
        return 1 << (box.p - 1)

    def axis_ranges(self, box: BoxIndex) -> list[tuple[int, int]]:
        """Half-open integer extent of the box along each axis."""
        if box.ell is None:
            return [(-1, 1)] * self.d
        b = self.scale(box)
        return [(e * b, (e + 1) * b) for e in box.ell]

    def lattice_axes(self, box: BoxIndex) -> list[np.ndarray]:
        return [np.arange(lo, hi) for lo, hi in self.axis_ranges(box)]

    def point_count(self, box: BoxIndex) -> int:
        return (2 if box.ell is None else self.scale(box)) ** self.d

    def locate(self, point: tuple[int, ...]) -> BoxIndex:
        """The unique box containing an integer point (raises outside)."""
        if len(point) != self.d:
            raise ValueError(f"point has {len(point)} coordinates, tiling is {self.d}-dimensional")
        point = tuple(int(v) for v in point)  # numpy ints lack bit_length
        m = max(max(point), max(-v - 1 for v in point))
        if m < 1:
            return BoxIndex(0, None)
        p = m.bit_length()
        if p > self.p_max:
            raise ValueError(f"point {point} outside the tiled cube [-{1 << self.p_max}, {1 << self.p_max})^d")
        b = 1 << (p - 1)
        return BoxIndex(p, tuple(v // b for v in point))


def build_tiling(d: int, p_max: int) -> NdTiling:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    # exact up to d = 64, past which a table is far past the cap anyway
    count = 1 + p_max * (4 ** min(d, 64) - 2 ** min(d, 64))
    if count > TILE_CAP:
        raise ValueError(f"a tiling of {'over ' if d > 64 else ''}{count} boxes exceeds the cap "
                         f"{TILE_CAP}; reduce d or p_max")
    ells = admissible_ells(d)
    boxes = (BoxIndex(0, None), *(BoxIndex(p, ell) for p in range(1, p_max + 1) for ell in ells))
    return NdTiling(d, p_max, boxes)


@dataclass(frozen=True)
class NdFrameSpec(_BoxFrame):
    """Separable frame on an n^d grid; axis window factors stored once.

    records holds the factors (p, e), p = 1 .. p_max, e = -2 .. 1, then
    DC (key None).  A box's stack is the outer product of its factors,
    formed as chunks of its core (frame1d._BoxFrame) or whole for one box
    (box_stack).
    """

    window: Window
    mu: float
    q: int
    d: int
    n: int
    tiling: NdTiling
    records: BandRecords = field(repr=False)

    @property
    def half(self) -> int:
        return self.n // 2

    def factor_rows(self, box: BoxIndex) -> list[int]:
        """The record of each axis factor of the box."""
        if box.ell is None:
            return [len(self.records.ps) - 1] * self.d
        return [4 * (box.p - 1) + e + 2 for e in box.ell]

    @property
    def dc_factor(self) -> np.ndarray:
        """The DC factor on the whole grid, built on demand."""
        return _on_grid(self.n, *self._factors[-1])

    def box_period(self, box: BoxIndex) -> int:
        """Per-axis modulation period m = q w: q per lattice node along the axis."""
        return self.q * int(self.records.w[self.factor_rows(box)[0]])

    @property
    def _fold_keys(self) -> tuple[BoxIndex, ...]:
        return self.tiling.boxes


def make_nd_frame_spec(window: Window, mu: float, q: int, d: int, n: int,
                       p_max: int | None = None) -> NdFrameSpec:
    if d not in AXIS_CAP:
        raise ValueError(f"dimension must be one of {sorted(AXIS_CAP)}, got {d}")
    if n % 2 != 0 or n < 4:
        raise ValueError(f"grid size must be even and >= 4, got {n}")
    if n > AXIS_CAP[d]:
        raise ValueError(f"axis size capped at {AXIS_CAP[d]} for d = {d}, got {n}")
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"q must be a positive integer, got {q!r}")
    mu = float(mu)
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    half = n // 2
    _check_reach(half, mu)
    if p_max is None:
        # smallest p with mu 2^p >= n/2, so the floor cell of any grid
        # frequency lands inside the tiled cube
        p_max = max(1, math.ceil(math.log2(half / mu)))
    if p_max > P_MAX_CAP:
        raise ValueError(f"p_max must be <= {P_MAX_CAP}, got {p_max}")
    tiling = build_tiling(d, p_max)
    # factor (p, e) sums over mu * [e b, (e+1) b), b = 2^(p-1); DC over mu * {-1, 0}
    keys = (*((p, e) for p in range(1, p_max + 1) for e in (-2, -1, 0, 1)), None)
    starts, stops = np.array([(e << (p - 1), (e + 1) << (p - 1)) for p, e in keys[:-1]] + [(-1, 1)]).T
    w = np.append((stops - starts)[:-1], 1)
    # evaluate each lattice where it reaches the grid
    reach = _lattice_reach(window, mu, n)
    starts = np.maximum(starts, -reach).astype(np.int64)
    counts = np.maximum(np.minimum(stops, reach + 1).astype(np.int64) - starts, 0)
    _lattice_budget(window, int(counts.sum()), n)
    m = np.array([min(int(q) * int(b), n) for b in w], dtype=np.int64)
    records = BandRecords(keys, *lattice_records(window, mu * _runs(starts, counts), counts, n), w, m, half)
    return NdFrameSpec(window, mu, int(q), d, n, tiling, records)


def _check_field(spec: NdFrameSpec, fhat: np.ndarray) -> np.ndarray:
    fhat = np.asarray(fhat)
    if fhat.shape != (spec.n,) * spec.d:
        raise ValueError(f"expected shape {(spec.n,) * spec.d}, got {fhat.shape}")
    return fhat.astype(np.complex128, copy=False)


def element_nd(spec: NdFrameSpec, box: BoxIndex, kvec: tuple[int, ...]) -> np.ndarray:
    """Spectral array of one frame element, axes in ascending frequency;
    a box that is no tile of the spec is refused."""
    if box != BoxIndex(0, None) and not (1 <= box.p <= spec.tiling.p_max
                                         and box.ell in admissible_ells(spec.d)):
        raise ValueError(f"box {box} is not a tile of the spec")
    m = spec.box_period(box)
    if len(kvec) != spec.d or not all(0 <= k < m for k in kvec):
        raise ValueError(f"kvec {kvec} outside (0..{m - 1})^{spec.d}")
    return _element(spec, box, kvec)


def analyze_nd(spec: NdFrameSpec, fhat: np.ndarray) -> dict[BoxIndex, np.ndarray]:
    """<f, element> over all boxes, f^ the spectral field on the grid (frame1d._analyze)."""
    return _analyze(spec, _check_field(spec, fhat).ravel())


def synthesize_nd(spec: NdFrameSpec, coeffs: dict[BoxIndex, np.ndarray]) -> np.ndarray:
    """sum of coefficient-weighted elements, boxes added in tiling order
    whatever the order of coeffs (frame1d._synthesize)."""
    return _synthesize(spec, coeffs).reshape((spec.n,) * spec.d)


def frame_operator_apply_nd(spec: NdFrameSpec, fhat: np.ndarray) -> np.ndarray:
    return synthesize_nd(spec, analyze_nd(spec, fhat))


def walnut_apply_nd(spec: NdFrameSpec, fhat: np.ndarray) -> np.ndarray:
    """Direct shift-sum evaluation of S f on the core box records
    (frame1d._walnut_sum); matches analyze/synthesize to round-off."""
    fhat = _check_field(spec, fhat)
    return _walnut_sum(spec, fhat.ravel()).reshape(fhat.shape)


# one conjugate filter and one tail bound serve both frames
NdBoundReport = WalnutBoundReport
walnut_bounds_nd = walnut_bounds
NdConjugate = ConjugateFilter
conjugate_filter_nd = conjugate_filter


def reconstruct_nd(spec: NdFrameSpec, fhat: np.ndarray) -> tuple[np.ndarray, float]:
    """Analyze against the spec's conjugate family, synthesize with the
    primal one: the frame1d round trip (_round_trip) on the core box
    records."""
    fhat = _check_field(spec, fhat)
    rec, rel_err = _round_trip(spec, fhat.ravel())
    return rec.reshape(fhat.shape), rel_err
