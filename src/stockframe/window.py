"""Spectral windows and per-band window stacks.

A window is described by its frequency profile phihat (real, nonnegative,
vectorized) plus, when available, a closed-form time profile.  The stack
of a window over a partition collects, for every signed band p, the band
sum

    Phi_p(omega) = sum_{eta in band(p)} phihat(omega - mu * eta)

evaluated on the grid frequencies; mu scales the integer band lattice.
The stack is what every frame computation consumes: admissibility
scans, sums of squares (frame-bound estimates), decay envelopes and the
conjugate filters all read these arrays.

Profiles are even functions evaluated through x**2, so the mirror band
arrays are bit-for-bit frequency reversals of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "nonzero_extent",
    "AdmissibilityReport",
    "admissibility",
    "StackBounds",
    "stack_sum_bounds",
    "gaussian_floor",
    "wiener_upper_bound",
    "DecayFit",
    "decay_fit",
    "band_mass_outside",
]

# Profile values below this are treated as zero when counting overlaps.
OVERLAP_THRESHOLD = 1e-12
# Band values stacked at a time when scanning a stack.
SCAN_BLOCK = 1 << 14


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


_GAUSS_AMP = 1.0 / math.sqrt(2.0)


def _gauss(x):
    return _GAUSS_AMP * np.exp(-np.pi * np.square(x))


def gaussian_window() -> Window:
    """Self-dual normalized Gaussian: both profiles are 2**-0.5 exp(-pi x^2)."""
    return Window("gaussian", _gauss, _gauss, math.inf)


def truncated_gaussian(eps: float) -> Window:
    """Gaussian profile cut to [-1-eps, 1+eps] with a cubic smoothstep blend.

    Identical to the Gaussian on [-1, 1], exactly zero outside the
    support, C^1 at both blend ends.  No closed-form time profile.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def profile(x):
        x = np.asarray(x, dtype=float)
        mag = np.abs(x)
        u = np.clip((mag - 1.0) / eps, 0.0, 1.0)
        taper = 1.0 + u * u * (2.0 * u - 3.0)  # 1 -> 0 on the blend
        return np.where(mag >= 1.0 + eps, 0.0, _gauss(x) * taper)

    return Window(f"truncated_gaussian({eps:g})", profile, None, 1.0 + eps)


def table_window(omegas, values, kind: str = "table") -> Window:
    """Window interpolated linearly from a sample table, zero outside it."""
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    if omegas.ndim != 1 or omegas.shape != values.shape or omegas.size < 2:
        raise ValueError("need matching 1-d tables with at least two points")
    if np.any(np.diff(omegas) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if np.any(values < 0):
        raise ValueError("profile values must be nonnegative")

    def profile(x):
        return np.interp(np.asarray(x, dtype=float), omegas, values, left=0.0, right=0.0)

    radius = float(max(abs(omegas[0]), abs(omegas[-1])))
    return Window(kind, profile, None, radius)


@dataclass
class WindowStack:
    """Band sums of a window over a partition, sampled on a grid."""

    window: Window
    mu: float
    grid: FrequencyGrid
    partition: AlphaPartition
    bands: dict[int, np.ndarray] = field(repr=False)

    @property
    def p_list(self) -> list[int]:
        return sorted(self.bands)

    def band(self, p: int) -> np.ndarray:
        return self.bands[p]

    def _blocks(self):
        """The bands in bands order, SCAN_BLOCK values at a time: yields
        (ps, their values stacked rows x n), so a scan takes a few numpy
        calls per block, not per band, and never holds the bands x n
        stack."""
        n = self.grid.size
        ps, arrays = list(self.bands), list(self.bands.values())
        rows = max(1, SCAN_BLOCK // n)
        for i in range(0, len(ps), rows):
            yield ps[i:i + rows], np.concatenate(arrays[i:i + rows]).reshape(-1, n)

    @cached_property
    def _extent_scan(self) -> tuple[dict[int, tuple[int, int]], np.ndarray, np.ndarray]:
        """Every band's nonzero extent, and the grid bins and squared values
        of all extents concatenated in bands order."""
        n = self.grid.size
        extents, bins, values = {}, [np.zeros(0, np.int64)], [np.zeros(0)]
        for ps, block in self._blocks():
            nz = block != 0
            lo = nz.argmax(axis=1)
            hi = np.where(nz.any(axis=1), n - nz[:, ::-1].argmax(axis=1), lo)
            extents.update(zip(ps, zip(lo.tolist(), hi.tolist())))
            length = hi - lo
            at = np.repeat(lo - (np.cumsum(length) - length), length) + np.arange(length.sum())
            bins.append(at)
            values.append(block.ravel()[at + np.repeat(np.arange(0, block.size, n), length)])
        values = np.concatenate(values)
        return extents, np.concatenate(bins), values * values

    @property
    def extents(self) -> dict[int, tuple[int, int]]:
        """Nonzero extent [lo, hi) of every band in grid bins, found on
        first use; (0, 0) for an all-zero band."""
        return self._extent_scan[0]

    def sum_of_squares(self) -> np.ndarray:
        """H0 = sum_p Phi_p^2 on the grid.

        One bincount over the band extents, which adds each bin's terms in
        bands order, as a dense band-by-band sum would.
        """
        _, bins, squares = self._extent_scan
        return np.bincount(bins, squares, self.grid.size)

    def lattice(self, p: int) -> np.ndarray:
        """Scaled band lattice mu * band(p), ascending."""
        return self.mu * self.partition.band_frequencies(p)

    def band_hull(self, p: int) -> tuple[float, float]:
        """Closed hull [min, max] of the scaled band lattice."""
        lat = self.lattice(p)
        return float(lat[0]), float(lat[-1])


def band_sum(window: Window, lattice: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """sum over the lattice of phihat(omega - point), vectorized.

    A compact window is evaluated only at the omegas within its support
    radius of the lattice hull.  Elsewhere every point contributes 0.0,
    so the output is the same as summing over all omegas.
    """
    if not window.compact:
        return _lattice_sum(window, lattice, omegas)
    # Rounding is monotone, so outside this mask fl(omega - point) lies
    # beyond fl(omega - nearest hull end) for every point, and each
    # difference rounds to a magnitude above the radius.
    radius = window.support_radius
    reach = (omegas - lattice.min() >= -radius) & (omegas - lattice.max() <= radius)
    out = np.zeros(omegas.shape, dtype=float)
    out[reach] = _lattice_sum(window, lattice, omegas[reach])
    return out


def _lattice_sum(window: Window, lattice: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    out = np.zeros(omegas.shape, dtype=float)
    for point in lattice:
        out += window.freq_profile(omegas - point)
    return out


def nonzero_extent(values: np.ndarray) -> tuple[int, int]:
    """(first nonzero index, last + 1) of a 1-d array, or (0, 0) when all are zero."""
    nz = values != 0
    lo = int(nz.argmax())
    if not nz[lo]:
        return 0, 0
    return lo, nz.size - int(nz[::-1].argmax())


def build_stack(window: Window, mu: float, alpha, n: int) -> WindowStack:
    """Stack over the grid of size n.

    The partition is extended until its scaled lattice passes the grid
    edge, and every signed p with mu * start(|p|) <= n/2 gets a band, so
    each grid row (Nyquist included) has a lattice point within mu.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    grid = FrequencyGrid(n)
    limit = int(math.floor(grid.half / mu)) + 1
    partition = partition_covering(alpha, limit + 1)
    omegas = grid.frequencies().astype(float)
    bands: dict[int, np.ndarray] = {}
    for iv in partition.intervals:
        if mu * iv.start > grid.half:
            break
        points = mu * iv.frequencies()
        for p in ({0} if iv.p == 0 else {iv.p, -iv.p}):
            # rounding is sign-symmetric: -(mu * eta) == mu * (-eta)
            bands[p] = band_sum(window, points if p >= 0 else -points, omegas)
    return WindowStack(window, mu, grid, partition, bands)


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


def admissibility(stack: WindowStack, threshold: float = OVERLAP_THRESHOLD) -> AdmissibilityReport:
    """Scan the stack a block of bands at a time.  Maxima, minima and
    counts are exact, so the report equals a scan of the whole stack."""
    n = stack.grid.size
    c1, above, best = -np.inf, np.zeros(n, dtype=np.int64), np.full(n, -np.inf)
    for _, block in stack._blocks():
        c1 = np.maximum(c1, block.max())
        above += (block > threshold).sum(axis=0)
        best = np.maximum(best, block.max(axis=0))  # max_p Phi_p at each bin
    c3 = float(best.min())
    return AdmissibilityReport(float(c1), int(above.max()), c3, c3 > 0.0, stack.window.compact)


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


def wiener_upper_bound(window: Window, mu: float, samples_per_cell: int = 64) -> float:
    """((1/mu + 1) * W)^2 with W the amalgam norm sum_k sup_{[k,k+1)} phihat.

    The per-cell sup is sampled; cells are accumulated outward until the
    profile leaves its support or falls below 1e-300.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    total = 0.0
    k = 0
    while True:
        cells_alive = False
        for sign in ((1,) if k == 0 else (1, -1)):
            lo = sign * k if sign > 0 else -(k + 1)
            pts = lo + np.arange(samples_per_cell) / samples_per_cell
            sup = float(window.freq_profile(pts).max())
            if sup > 1e-300:
                cells_alive = True
            total += sup
        if not cells_alive and k > window.support_radius:
            break
        if math.isfinite(window.support_radius) and k > window.support_radius + 1:
            break
        if k > 64:  # profile effectively dead long before this
            break
        k += 1
    return ((1.0 / mu + 1.0) * total) ** 2


@dataclass(frozen=True)
class DecayFit:
    """Power-law envelope fit phihat(omega) ~ c / (1 + |omega|)^n on [1, radius]."""

    n_est: float
    c_est: float


def decay_fit(window: Window, radius: float, n_samples: int = 256) -> DecayFit:
    """Least-squares fit of log phihat against log(1 + omega).

    Zero samples are skipped; a profile that is zero over the whole fit
    range (compact support inside the radius) reports n_est = inf.
    """
    if radius <= 1:
        raise ValueError(f"fit radius must exceed 1, got {radius}")
    omegas = np.linspace(1.0, radius, n_samples)
    vals = np.asarray(window.freq_profile(omegas), dtype=float)
    keep = vals > 0
    if keep.sum() < 2:
        return DecayFit(math.inf, math.nan)
    slope, intercept = np.polyfit(np.log1p(omegas[keep]), np.log(vals[keep]), 1)
    return DecayFit(float(-slope), float(math.exp(intercept)))


def band_mass_outside(stack: WindowStack, p: int, factor: float = 3.0) -> float:
    """Fraction of a band's grid mass outside a widened hull neighborhood."""
    omegas = stack.grid.frequencies().astype(float)
    lo, hi = stack.band_hull(p)
    pad = factor * max(hi - lo, stack.mu)
    inside = (omegas >= lo - pad) & (omegas <= hi + pad)
    total = float(stack.bands[p].sum())
    if total == 0.0:
        return 0.0
    return float(stack.bands[p][~inside].sum() / total)
