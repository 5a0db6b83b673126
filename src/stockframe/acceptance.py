"""Desk-scale acceptance checks, one runner per numbered criterion.

Every check is self-contained, uses the fixed seed, and returns a
CriterionResult with a pass flag and a one-line detail string.  The
checks pin the library's contract: exact partition arithmetic, basis
orthonormality, fast/naive agreement, stack floors, Walnut equivalence
and certified bounds, degeneration to the Gabor case, tiling
combinatorics, and d-dimensional round trips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import basis, frame1d, tiling, window
from .partition import build_partition, covering_bounds_hold
from .spectral import FrequencyGrid, SpectralSignal, TimeSamples, _norm

__all__ = ["SEED", "CriterionResult", "CRITERIA", "run_criterion", "run_all"]

SEED = 53391


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.number:2d} {self.name}: {self.detail} ({self.elapsed:.2f}s)"


def _rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def _random_time(rng, grid: FrequencyGrid) -> TimeSamples:
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return TimeSamples(grid, vals)


def _random_spectrum(rng, grid: FrequencyGrid) -> SpectralSignal:
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return SpectralSignal(grid, vals)


def criterion_partition() -> tuple[bool, str]:
    part1 = build_partition(1, 10)
    ok = part1.interval(0).start == 0 and part1.interval(0).stop == 1
    for p in range(1, 11):
        iv = part1.interval(p)
        ok = ok and iv.start == 1 << (p - 1) and iv.stop == 1 << p and iv.width == 1 << (p - 1)
    part0 = build_partition(0, 10)
    for p in range(11):
        iv = part0.interval(p)
        ok = ok and iv.start == p and iv.width == 1
    best = min(
        _timed(lambda: (build_partition(1, 10), build_partition(0, 10)))
        for _ in range(5)
    )
    return ok and best < 1e-3, f"dyadic and unit tables exact, build time {best * 1e6:.0f} us (< 1 ms)"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def criterion_covering() -> tuple[bool, str]:
    worst = None
    ok = True
    for alpha in (0.3, 0.5, 0.8):
        part = build_partition(alpha, 40)
        for p in range(10, 41):
            if not covering_bounds_hold(part, p):
                ok = False
                worst = (alpha, p)
    if ok:
        return True, "exact rational bounds 2^-(a+1) <= width/eta^a <= 1 for p = 10..40, a in {0.3, 0.5, 0.8}"
    return False, f"covering bound violated at alpha = {worst[0]}, p = {worst[1]}"


def criterion_orthonormality() -> tuple[bool, str]:
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0, 0.25, 0.5, 0.75, 1):
        worst = max(worst, basis.gram_deviation(alpha, 256))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    return ok, f"max |Gram - I| = {worst:.2e} (< 1e-10) over 5 alphas at n = 256 in {elapsed:.2f}s (< 10s)"


def criterion_fast_naive() -> tuple[bool, str]:
    rng = _rng()
    grid = FrequencyGrid(1024)
    worst = 0.0
    for alpha in (0, 0.5, 1):
        for _ in range(20):
            x = _random_time(rng, grid)
            fast = basis.analyze_fast(alpha, x)
            naive = basis.analyze_naive(alpha, x)
            for p, cf in fast.data.items():
                worst = max(worst, float(np.max(np.abs(cf - naive.data[p]))))
    big = _random_time(rng, FrequencyGrid(1 << 16))
    times = {}
    for alpha in (0, 0.5, 1):
        basis.analyze_fast(alpha, big)
        times[alpha] = min(_timed(lambda a=alpha: basis.analyze_fast(a, big)) for _ in range(2))
    tmax = max(times.values())
    ok = worst < 1e-10 and tmax < 1.0
    return ok, f"max coeff diff {worst:.2e} (< 1e-10), fast path at n = 2^16 worst {tmax * 1e3:.0f} ms (< 1 s)"


def criterion_concentration() -> tuple[bool, str]:
    lowest = 1.0
    where = None
    for alpha in (0.25, 0.5, 0.75, 1):
        layout = basis.band_layout(alpha, 4096)
        for p in layout.p_list:
            if abs(p) > 8:
                continue
            for tau in range(layout.width(p)):
                c = basis.concentration(alpha, basis.BasisIndex(p, tau), 4096)
                if c < lowest:
                    lowest, where = c, (alpha, p, tau)
    return lowest >= 0.85, f"min main-lobe energy fraction {lowest:.4f} at (alpha, p, tau) = {where} (>= 0.85)"


def criterion_stack_floor() -> tuple[bool, str]:
    ok = True
    parts = []
    for mu in (0.25, 0.5, 1.0):
        stack = window.build_stack(window.gaussian_window(), mu, 1, 512)
        a_low = window.stack_sum_bounds(stack).a_low
        floor = window.gaussian_floor(mu)
        ok = ok and a_low >= floor - 1e-9
        parts.append(f"mu={mu:g}: {a_low:.6f} >= {floor:.6f}")
    return ok, "; ".join(parts)


def criterion_walnut() -> tuple[bool, str]:
    rng = _rng()
    grid = FrequencyGrid(512)
    worst = 0.0
    for alpha in (0, 1):
        spec = frame1d.make_frame_spec(window.gaussian_window(), 0.5, 4, alpha, 512)
        for _ in range(10):
            f = _random_spectrum(rng, grid)
            direct = frame1d.frame_operator_apply(spec, f)
            shifted = frame1d.walnut_apply(spec, f)
            worst = max(worst, _norm(shifted.coeffs, direct.coeffs) / f.norm())
    return worst < 1e-8, f"max rel defect walnut vs analyze+synthesize {worst:.2e} (< 1e-8), alphas 0 and 1"


def criterion_painless() -> tuple[bool, str]:
    rng = _rng()
    win = window.truncated_gaussian(0.1)
    spec = frame1d.make_frame_spec(win, 0.5, 4, 1, 256)
    rep = frame1d.walnut_bounds(spec)
    sb = window.stack_sum_bounds(spec.stack)
    eig = frame1d.frame_bounds_eigen(spec)
    d_lo = abs(eig.lower - spec.q * sb.a_low)
    d_hi = abs(eig.upper - spec.q * sb.b_high)
    _, rel = frame1d.reconstruct(spec, _random_spectrum(rng, spec.grid))
    ok = rep.h_tail == 0.0 and d_lo <= 1e-10 and d_hi <= 1e-10 and rel < 1e-10
    return ok, (
        f"h_tail = {rep.h_tail!r}, |eig - q*stack| = ({d_lo:.1e}, {d_hi:.1e}) (<= 1e-10), "
        f"reconstruction rel err {rel:.1e} (< 1e-10)"
    )


def criterion_sandwich() -> tuple[bool, str]:
    spec = frame1d.make_frame_spec(window.gaussian_window(), 0.5, 8, 1, 256)
    rep = frame1d.walnut_bounds(spec)
    eig = frame1d.frame_bounds_eigen(spec)
    ok = (rep.lower <= eig.lower + 1e-9 and eig.upper <= rep.upper + 1e-9
          and eig.lower > 0)
    return ok, (
        f"A = {rep.lower:.6f} <= lam_min = {eig.lower:.6f} <= "
        f"lam_max = {eig.upper:.6f} <= B = {rep.upper:.6f}, lam_min > 0"
    )


def criterion_gabor() -> tuple[bool, str]:
    mu, q, n = 0.5, 4, 128
    win = window.gaussian_window()
    spec = frame1d.make_frame_spec(win, mu, q, 0, n)
    j = spec.grid.frequencies()
    worst = 0.0
    ps = [p for p in spec.p_range if abs(p) <= 8]
    for p in ps:
        for k in range(spec.k_count(p)):
            elem = frame1d.frame_element(spec, p, k).coeffs
            gabor = np.exp(-2j * np.pi * j * k / q) * win.freq_profile(j - mu * p)
            worst = max(worst, float(np.max(np.abs(elem - gabor))))
    return worst < 1e-12, (
        f"max |element - T_(k/q) M_(mu p) phi| = {worst:.2e} (< 1e-12) over {len(ps)} bands"
    )


def criterion_tiling() -> tuple[bool, str]:
    c2 = len(tiling.admissible_ells(2))
    c3 = len(tiling.admissible_ells(3))
    til = tiling.build_tiling(2, 5)
    seen: dict[tuple[int, int], tiling.BoxIndex] = {}
    ok = c2 == 12 and c3 == 56
    for box in til.boxes:
        ax = til.lattice_axes(box)
        for pt in product(*(a.tolist() for a in ax)):
            if pt in seen:
                ok = False
            seen[pt] = box
            if til.locate(pt) != box:
                ok = False
    expected = {(a, b) for a in range(-32, 32) for b in range(-32, 32)}
    ok = ok and set(seen) == expected
    return ok, (
        f"corona box counts {c2} (d=2) and {c3} (d=3); "
        f"{len(seen)} lattice points of [-32,32)^2 each in exactly one box"
    )


def criterion_nd_roundtrip() -> tuple[bool, str]:
    t0 = time.perf_counter()
    rng = _rng()
    fhat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    spec4 = tiling.make_nd_frame_spec(window.truncated_gaussian(0.1), 0.5, 4, 2, 64)
    _, err4 = tiling.reconstruct_nd(spec4, fhat)
    spec8 = tiling.make_nd_frame_spec(window.gaussian_window(), 0.5, 8, 2, 64)
    resid = tiling.conjugate_filter_nd(spec8).partition_residual()
    _, err8 = tiling.reconstruct_nd(spec8, fhat)
    elapsed = time.perf_counter() - t0
    ok = err4 < 1e-10 and err8 < 1e-6 and resid < 1e-12 and elapsed < 60.0
    return ok, (
        f"painless q=4 rel err {err4:.1e} (< 1e-10), gaussian q=8 rel err {err8:.1e} (< 1e-6), "
        f"|sum Omega Phi - nu^2| = {resid:.1e} (< 1e-12), {elapsed:.1f}s (< 60s)"
    )


def criterion_tail_trend() -> tuple[bool, str]:
    qs = (4, 8, 16, 32)
    win = window.gaussian_window()
    t1 = [frame1d.walnut_bounds(frame1d.make_frame_spec(win, 0.5, q, 1, 512)).h_tail
          for q in qs]
    t2 = [tiling.walnut_bounds_nd(tiling.make_nd_frame_spec(win, 0.5, q, 2, 64)).h_tail
          for q in qs]
    ok = all(a > b for a, b in zip(t1, t1[1:])) and all(a > b for a, b in zip(t2, t2[1:]))
    s1 = ", ".join(f"{v:.1e}" for v in t1)
    s2 = ", ".join(f"{v:.1e}" for v in t2)
    return ok, f"1D h_tail: {s1}; 2D h_tail: {s2}; both strictly decreasing over q = {qs}"


CRITERIA: list[tuple[str, "callable"]] = [
    ("partition-correctness", criterion_partition),
    ("alpha-covering", criterion_covering),
    ("orthonormality", criterion_orthonormality),
    ("fast-naive-equivalence", criterion_fast_naive),
    ("concentration", criterion_concentration),
    ("gaussian-stack-floor", criterion_stack_floor),
    ("walnut-equivalence", criterion_walnut),
    ("painless-regime", criterion_painless),
    ("frame-sandwich", criterion_sandwich),
    ("gabor-degeneration", criterion_gabor),
    ("tiling-combinatorics", criterion_tiling),
    ("nd-round-trip", criterion_nd_roundtrip),
    ("tail-limit-trend", criterion_tail_trend),
]


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number must be 1..{len(CRITERIA)}, got {number}")
    name, fn = CRITERIA[number - 1]
    t0 = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


def run_all(numbers=None) -> list[CriterionResult]:
    if numbers is None:
        numbers = range(1, len(CRITERIA) + 1)
    return [run_criterion(n) for n in numbers]
