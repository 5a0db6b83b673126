"""Window profiles and band stacks: sums, symmetry, bounds, decay."""

import itertools
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from stockframe import window
from stockframe.partition import partition_covering
from stockframe.spectral import FrequencyGrid, poisson_residual
from stockframe.window import (
    _GAUSS_AMP,
    OVERLAP_THRESHOLD,
    Window,
    _gauss,
    admissibility,
    build_stack,
    gaussian_floor,
    gaussian_window,
    lattice_records,
    stack_sum_bounds,
    table_window,
    truncated_gaussian,
)


def stack_case(window=None, mu=0.5, alpha=1, n=128):
    return build_stack(window or gaussian_window(), mu, alpha, n)


# ---------------------------------------------------------------- profiles


def test_gaussian_profile_values():
    win = gaussian_window()
    assert win.freq_profile(0.0) == pytest.approx(2**-0.5, rel=1e-15)
    xs = np.linspace(-3, 3, 25)
    want = np.exp(-np.pi * xs**2) / math.sqrt(2)
    assert np.max(np.abs(win.freq_profile(xs) - want)) < 1e-16
    assert not win.compact


def test_gaussian_vanishes_beyond_its_zero_radius():
    # exp(-pi x^2) underflows to 0.0 once |x| > 15.4008
    win = gaussian_window()
    assert win.zero_radius == 15.5
    xs = np.concatenate([15.5 + np.linspace(0.0, 100.0, 1001), [1e6, np.inf]])
    assert np.all(_gauss(xs) == 0.0) and np.all(_gauss(-xs) == 0.0)
    assert truncated_gaussian(0.1).zero_radius == 1.1


def test_gauss_keeps_the_bits_of_its_formula():
    # one buffer through the same four operations: a scalar stays a scalar
    for x in (0.5, 3, -15.5):
        got, want = _gauss(x), _GAUSS_AMP * np.exp(-np.pi * np.square(x))
        assert np.isscalar(got) and got.tobytes() == want.tobytes()
    for x in (np.arange(-20, 21), np.linspace(-16.0, 16.0, 1001), 0.37 * np.arange(-6, 7).reshape(13, 1)):
        got, want = _gauss(x), _GAUSS_AMP * np.exp(-np.pi * np.square(x))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_gaussian_is_self_dual():
    win = gaussian_window()
    res = poisson_residual(win.time_profile, win.freq_profile, 1.0, np.linspace(0, 1, 9))
    assert float(res.max()) < 1e-12


def test_truncated_gaussian_support_and_agreement():
    win = truncated_gaussian(0.1)
    assert win.compact and win.support_radius == pytest.approx(1.1)
    inner = np.linspace(-1, 1, 41)
    assert np.array_equal(win.freq_profile(inner), gaussian_window().freq_profile(inner))
    outer = np.array([-1.2, 1.1, 1.5, 4.0])
    assert np.all(win.freq_profile(outer) == 0.0)
    # cubic blend keeps the profile C^1: finite differences stay bounded
    # through both blend ends instead of jumping
    h = 1e-6
    for x0 in (1.0, 1.1):
        d = (win.freq_profile(x0 + h) - win.freq_profile(x0 - h)) / (2 * h)
        assert abs(d) < 1.0


def test_truncated_gaussian_rejects_bad_eps():
    with pytest.raises(ValueError):
        truncated_gaussian(0.0)


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, -0.5])
def test_truncated_gaussian_rejects_a_non_finite_or_negative_eps(eps):
    # an infinite taper has an infinite zero radius: every lattice point
    # would be laid on every grid bin
    with pytest.raises(ValueError, match="positive and finite"):
        truncated_gaussian(eps)


def test_tiny_taper_width_warns_of_no_overflow():
    # (|x| - 1) / eps overflows to inf, which clips to the end of the
    # blend; 1 + eps rounds to 1, so the support is the open interval
    win = truncated_gaussian(1e-320)
    xs = np.linspace(-2.0, 2.0, 81)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = win.freq_profile(xs)
    assert np.array_equal(got, np.where(np.abs(xs) < 1.0, _gauss(xs), 0.0))


def test_table_window_interpolates_nodes():
    xs = np.linspace(-2, 2, 9)
    vals = np.exp(-xs**2)
    win = table_window(xs, vals)
    assert np.max(np.abs(win.freq_profile(xs) - vals)) == 0.0
    assert win.freq_profile(2.5) == 0.0
    assert win.support_radius == 2.0


def test_table_window_validation():
    with pytest.raises(ValueError):
        table_window([0, 1], [1, -1])
    with pytest.raises(ValueError):
        table_window([0, 0], [1, 1])
    with pytest.raises(ValueError):
        table_window([0], [1])


@pytest.mark.parametrize("omegas, values", [([0, 1], [0, np.nan]), ([-1, 0, 1], [0, np.inf, 0]),
                                            ([-np.inf, 0], [0, 1]), ([0, np.nan], [1, 1]),
                                            ([-1, np.inf], [1, 0])])
def test_table_window_refuses_non_finite_entries(omegas, values):
    # NaN passed the sign check, an inf value built records of inf, and an
    # abscissa of -inf gave an infinite support radius
    with pytest.raises(ValueError, match="must be finite"):
        table_window(omegas, values)


# ---------------------------------------------------------------- stacks


def dense_band_sum(win, lattice, n):
    """The band sum point by point over the whole grid of size n."""
    omegas = FrequencyGrid(n).frequencies().astype(float)
    out = np.zeros(n)
    for point in lattice:
        out += win.freq_profile(omegas - point)
    return out


def assert_records_equal_dense(lo, hi, values, dense):
    """Records (lo, hi, concatenated values) equal the dense bands: the
    extents are the nonzero extents and the values the bins on them."""
    ends = np.cumsum(hi - lo)
    for a, b, stop, band in zip(lo, hi, ends, dense):
        nz = np.flatnonzero(band)
        assert (a, b) == ((nz[0], nz[-1] + 1) if nz.size else (0, 0))
        assert np.array_equal(values[stop - (b - a):stop], band[a:b])
    assert values.size == (ends[-1] if ends.size else 0)


def signed_window():
    # negative lobes, so bands hold values below the 0.0 off their extents
    def profile(x):
        mag = np.abs(x)
        return np.where(mag <= 1.5, 1.0, np.where(mag <= 4.5, -1.0, 0.0))
    return Window("step", profile, None, 4.5)


def counting_window(win):
    """win's profile behind a Window of the same zero radius that records
    the size and the largest |x| of every call."""
    calls = []

    def profile(x):
        calls.append((x.size, float(np.max(np.abs(x), initial=0.0))))
        return win.freq_profile(x)
    return Window(win.kind, profile, None, win.zero_radius), calls


def test_band_sum_matches_direct_loop(monkeypatch):
    # the records, cut at the zero radius, equal the sum over every grid
    # bin bit for bit, point by point and through the profile table; near
    # 0 the difference offset - point needs more bits than a float holds,
    # so such points keep table rows of their own, and a point repeated in
    # another band shares its row
    near = np.array([1e-17, -2.0**-40, 0.1, 1.0 / 3.0, -0.3, 0.7 + 2.0**-30, 1.1, -1.1, 4.5 - 1e-15])
    lattices = [0.5 * np.arange(-30, 28)] * 3 + [
        0.5 * np.arange(4, 8), -0.5 * np.arange(4, 8), 0.3 * np.arange(-9, -3), np.array([40.0]),
        near, near[::-1], -near, np.array([0.0, 1e-17, 2e-17])]
    points, counts = np.concatenate(lattices), np.array([lat.size for lat in lattices])
    # some differences round: the grid's frequencies minus 1e-17 do
    assert Fraction(float(-4 - 1e-17)) != -4 - Fraction(1e-17)
    wins = (gaussian_window(), truncated_gaussian(0.1), signed_window(),
            table_window([-1.0, 1.0], [0.5, 0.5]))  # nonzero at its radius
    for win, n, table in itertools.product(wins, (8, 64), (False, True)):
        # blocks of 120 points: the first block's share rows two to one, and
        # the 219 points have at most 90 rows, so they get the table
        monkeypatch.setattr(window, "LATTICE_BLOCK", (120 if table else 1 << 16) * window._point_bins(win, n))
        counting, calls = counting_window(win)
        lo, hi, offset, values = lattice_records(counting, points, counts, n)
        dense = [dense_band_sum(win, lat, n) for lat in lattices]
        assert_records_equal_dense(lo, hi, values, dense)
        assert np.array_equal(offset, np.cumsum(hi - lo) - hi)  # the records lie end to end
        want = np.concatenate([band[a:b] for a, b, band in zip(lo, hi, dense)])
        assert values.tobytes() == want.tobytes()
        omegas = FrequencyGrid(n).frequencies().astype(float)
        within = np.count_nonzero(np.abs(np.subtract.outer(omegas, points)) <= win.zero_radius)
        samples = sum(size for size, _ in calls)
        assert samples < within if table else samples == within, (win.kind, n)


@pytest.mark.parametrize("win", [truncated_gaussian(0.1),
                                 # nonzero at its radius, where the support is closed
                                 table_window([-1.0, 1.0], [0.5, 0.5])])
def test_compact_band_sum_equals_full_evaluation(win):
    for lattice in (0.5 * np.arange(4, 8), -0.5 * np.arange(4, 8), np.array([2.0]),
                    0.5 * np.arange(-70, -62)):
        want = dense_band_sum(win, lattice, 64)
        lo, hi, offset, values = lattice_records(win, lattice, np.array([lattice.size]), 64)
        assert_records_equal_dense(lo, hi, values, [want])
        assert offset.tolist() == [-lo[0]]


def stack_lattices(mu, alpha, n):
    """Every band's whole lattice, in build_stack's band order, p order:
    the mirror bands -p_max .. -1 (the intervals reversed, points negated),
    then the bands 0 .. p_max."""
    half = n // 2
    covering = partition_covering(alpha, int(math.floor(half / mu)) + 2).intervals
    intervals = list(itertools.takewhile(lambda iv: mu * iv.start <= half, covering))
    lattices = {-iv.p: -(mu * iv.frequencies()) for iv in reversed(intervals) if iv.p > 0}
    lattices.update((iv.p, mu * iv.frequencies()) for iv in intervals)
    return lattices


def dense_stack(win, mu, alpha, n):
    """The dense construction the records replace: every band summed
    point by point over the whole grid, in build_stack's band order."""
    return {p: dense_band_sum(win, points, n) for p, points in stack_lattices(mu, alpha, n).items()}


@pytest.mark.parametrize("block", [1, 35, 36 * 7 + 5, 3000, 1 << 16])
@pytest.mark.parametrize("win", [gaussian_window(), truncated_gaussian(0.1),
                                 table_window([-1.0, 1.0], [0.5, 0.5])])
def test_lattice_blocks_are_bit_identical(win, block, monkeypatch):
    # blocks of whole points, one point to a few or the default's, add
    # into the one accumulator in point order: the records equal those of
    # one block of every point, which has no table (a lattice of less than
    # a block); blocks of 3000 samples give the second lattice, whose
    # differences repeat, the profile table
    for points, counts in ((0.1 * np.arange(-2000, 2001), np.array([700, 1, 2000, 1100, 200])),
                           (0.5 * np.arange(-250, 251), np.array([100, 1, 250, 150]))):
        monkeypatch.setattr(window, "LATTICE_BLOCK", 1 << 30)
        want = lattice_records(win, points, counts, 256)
        monkeypatch.setattr(window, "LATTICE_BLOCK", block)
        got = lattice_records(win, points, counts, 256)
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [48, 256])
@pytest.mark.parametrize("alpha", [0, Fraction(3, 10), Fraction(1, 2), 1])
@pytest.mark.parametrize("mu", [0.25, 0.3, 0.5, 3.0])
@pytest.mark.parametrize("window", [
    gaussian_window,
    lambda: truncated_gaussian(0.1),
    lambda: table_window([-1.0, 1.0], [0.5, 0.5]),  # nonzero at its radius
    signed_window,
])
def test_stack_records_equal_dense_construction(window, mu, alpha, n):
    win = window()
    stack = build_stack(win, mu, alpha, n)
    want = dense_stack(win, mu, alpha, n)
    assert stack.ps == tuple(want)
    assert_records_equal_dense(stack.lo, stack.hi, stack.values, want.values())
    assert all(np.array_equal(stack.band(p), band) for p, band in want.items())


@pytest.mark.parametrize("win", [gaussian_window(), truncated_gaussian(0.1), signed_window(),
                                 table_window([-1.0, 1.0], [0.5, 0.5])])  # nonzero at its radius
def test_stack_evaluates_only_the_samples_that_can_be_nonzero(win, monkeypatch):
    # a lane past the zero radius or a point past the reach adds only +0.0:
    # neither is evaluated, and the records stay those of the dense sums
    mu, alpha, n = 0.5, 1, 256
    radius, half = win.zero_radius, n // 2
    k = window._point_bins(win, n)
    omegas = FrequencyGrid(n).frequencies().astype(float)
    points = np.concatenate(list(stack_lattices(mu, alpha, n).values()))
    within = np.count_nonzero(np.abs(np.subtract.outer(omegas, points)) <= radius)
    want = dense_stack(win, mu, alpha, n)
    # blocks of 256 points give the lattice of 521 to 579 points the profile
    # table
    for block in (window.LATTICE_BLOCK, 256 * k):
        lattices = []

        def records(window_, points, counts, n_):
            lattices.append(points)
            return lattice_records(window_, points, counts, n_)

        monkeypatch.setattr(window, "lattice_records", records)
        monkeypatch.setattr(window, "LATTICE_BLOCK", block)
        # the counting window vanishes past win's zero radius, as win does
        counting, calls = counting_window(win)
        stack = build_stack(counting, mu, alpha, n)
        assert stack.ps == tuple(want)
        assert_records_equal_dense(stack.lo, stack.hi, stack.values, want.values())
        assert max(far for _, far in calls) <= radius
        assert np.abs(np.concatenate(lattices)).max() <= half + radius + 1.0
        if block == 256 * k:
            # the lanes within the zero radius of each table row: a row per
            # distinct exact difference between a point and the first of
            # the k bins it is laid on, a row per point whose difference
            # rounds
            rows = {}
            for i, point in enumerate(np.concatenate(lattices)):
                first = min(max(math.floor(point - radius) - 1, -half), half - k)
                exact = first - Fraction(point)
                key = float(exact) if Fraction(float(exact)) == exact else ("own", i)
                rows[key] = np.count_nonzero(np.abs(first + np.arange(k) - point) <= radius)
            assert sum(size for size, _ in calls) == sum(rows.values()) < within
        else:
            # exactly the (point, bin) pairs within the zero radius
            assert sum(size for size, _ in calls) == within


@pytest.mark.parametrize("alpha", [0, Fraction(1, 2), 1])
# at mu = 0.3 the differences offset - point of the points near 0 round,
# so those points keep table rows of their own
@pytest.mark.parametrize("mu", [0.25, 0.3, 0.5])
@pytest.mark.parametrize("make", [
    gaussian_window,
    lambda: truncated_gaussian(0.1),
    lambda: table_window([-1.0, 1.0], [0.5, 0.5]),  # nonzero at its radius
    signed_window,
])
def test_table_stack_records_equal_dense_construction(make, mu, alpha, monkeypatch):
    # blocks of 384 points give these n = 256 lattices the profile table,
    # which evaluates fewer samples than the (point, bin) pairs within the
    # zero radius; the records are the dense sums', bit for bit
    win, n = make(), 256
    monkeypatch.setattr(window, "LATTICE_BLOCK", 384 * window._point_bins(win, n))
    counting, calls = counting_window(win)
    stack = build_stack(counting, mu, alpha, n)
    want = dense_stack(win, mu, alpha, n)
    assert stack.ps == tuple(want)
    assert_records_equal_dense(stack.lo, stack.hi, stack.values, want.values())
    assert stack.values.tobytes() == np.concatenate([band[a:b] for a, b, band in
                                                      zip(stack.lo, stack.hi, want.values())]).tobytes()
    omegas = FrequencyGrid(n).frequencies().astype(float)
    points = np.concatenate(list(stack_lattices(mu, alpha, n).values()))
    within = np.count_nonzero(np.abs(np.subtract.outer(omegas, points)) <= win.zero_radius)
    assert sum(size for size, _ in calls) < within


@pytest.mark.parametrize("seed", range(6))
def test_trim_cuts_each_record_to_its_kept_span(seed):
    # records of length 0 to 7, kept entries scattered (so spans keep
    # inner entries that are not kept) and often on both sides of a record
    # edge, against a record-by-record loop
    rng = np.random.default_rng(seed)
    length = rng.integers(0, 8, 60)
    lo = rng.integers(-50, 50, 60)
    values = rng.standard_normal(int(length.sum()))
    keep = rng.random(values.size) < (0.2, 0.5, 0.9)[seed % 3]
    want_lo, want_hi, want = [], [], []
    for b, start in enumerate(np.cumsum(length) - length):
        kept = np.flatnonzero(keep[start:start + length[b]])
        first, stop = (kept[0], kept[-1] + 1) if kept.size else (0, 0)
        want_lo.append(lo[b] + first if kept.size else 0)
        want_hi.append(want_lo[-1] + stop - first)
        want.extend(values[start + first:start + stop])
    got_lo, got_hi, got = window._trim(values, keep, lo, length)
    assert got_lo.tolist() == want_lo and got_hi.tolist() == want_hi
    assert np.array_equal(got, want)


# a record: its first bin and its keep flags, mixed, all kept or none kept
_RECORDS = st.lists(st.tuples(st.integers(-50, 50),
                              st.one_of(st.lists(st.booleans(), max_size=8),
                                        st.integers(0, 8).map(lambda k: [True] * k),
                                        st.integers(0, 8).map(lambda k: [False] * k))), max_size=12)


@seed(31)
@settings(max_examples=300, deadline=None, database=None)
@given(_RECORDS)
@example([])  # no records
@example([(3, []), (-2, []), (0, [])])  # records of zero length only
@example([(5, [True]), (0, [False]), (7, [True])])  # one entry each
@example([(0, [False] * 4), (9, []), (-3, [False] * 3)])  # nothing kept
@example([(0, [True] * 4), (9, []), (-3, [True] * 3)])  # everything kept
def test_spans_and_trim_match_a_record_loop(records):
    lo = np.array([a for a, _ in records], dtype=np.int64)
    length = np.array([len(k) for _, k in records], dtype=np.int64)
    keep = np.array([x for _, k in records for x in k], dtype=bool)
    values = np.arange(keep.size) + 0.5
    want_lo, want_hi, want = [], [], []
    for (start, flags), entry in zip(records, np.cumsum(length) - length):
        kept = np.flatnonzero(flags)
        first, stop = (kept[0], kept[-1] + 1) if kept.size else (0, 0)
        want_lo.append(start + first if kept.size else 0)
        want_hi.append(want_lo[-1] + stop - first)
        want.extend(values[entry + first:entry + stop])
    got_lo, got_hi = window._spans(keep, lo, length)
    assert got_lo.tolist() == want_lo and got_hi.tolist() == want_hi
    got_lo, got_hi, got = window._trim(values, keep, lo, length)
    assert got_lo.tolist() == want_lo and got_hi.tolist() == want_hi and got.tolist() == want


def test_stack_extents_bound_the_nonzero_bins():
    for win in (gaussian_window(), truncated_gaussian(0.1)):
        stack = stack_case(window=win, alpha=0.5, n=128)
        for p, lo, hi in zip(stack.ps, stack.lo.tolist(), stack.hi.tolist()):
            nz = np.flatnonzero(stack.band(p))
            assert (lo, hi) == (nz[0], nz[-1] + 1)
    # a band that never reaches the grid has the empty extent
    stack = build_stack(table_window([-0.2, 0.2], [1.0, 1.0]), 8.0, 1, 64)
    b = stack.ps.index(3)
    assert (stack.lo[b], stack.hi[b]) == (0, 0) and not stack.band(3).any()


def test_stack_band_mirror_symmetry():
    # negative bands are exact reflections; index 0 is the unpaired Nyquist row
    stack = stack_case(alpha=0.5, n=128)
    for p in stack.p_list:
        if p <= 0:
            continue
        assert np.array_equal(stack.band(-p)[1:], stack.band(p)[1:][::-1])


def test_stack_p_range_tracks_grid():
    stack = stack_case(mu=0.5, alpha=1, n=128)
    # bands enter while the lattice origin mu*start stays below the fold
    assert max(stack.p_list) == max(
        p for p in range(1, 20) if 0.5 * 2 ** (p - 1) <= 64
    )
    assert stack.p_list == sorted(stack.p_list)
    assert 0 in stack.p_list


def test_sum_of_squares_matches_bands():
    # H0 adds the bands in the stack's order, p order; at mu = 0.25 the
    # order (|p|, p) would move some bins by an ulp
    for mu in (0.25, 0.5):
        stack = stack_case(mu=mu, n=64)
        direct = np.zeros(64)
        for band in stack.bands.values():
            direct += band ** 2
        assert np.array_equal(stack.sum_of_squares(), direct)
    stack = stack_case(mu=0.25, n=64)
    top = max(stack.ps)
    assert stack.ps == tuple(range(-top, top + 1))
    by_magnitude = np.zeros(64)
    for p in sorted(stack.ps, key=lambda p: (abs(p), p)):
        by_magnitude += stack.band(p) ** 2
    assert not np.array_equal(stack.sum_of_squares(), by_magnitude)


# ---------------------------------------------------------------- bounds


def test_stack_sum_bounds_are_grid_extrema():
    stack = stack_case(n=128)
    h0 = stack.sum_of_squares()
    bounds = stack_sum_bounds(stack)
    assert bounds.a_low == float(h0.min())
    assert bounds.b_high == float(h0.max())
    assert 0 < bounds.a_low <= bounds.b_high


def test_gaussian_floor_formula():
    for mu in (0.25, 0.5, 1.0):
        assert gaussian_floor(mu) == pytest.approx(0.5 * math.exp(-2 * math.pi * mu * mu), rel=1e-15)


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0])
def test_gaussian_stack_clears_floor(mu):
    stack = stack_case(mu=mu, n=128)
    assert stack_sum_bounds(stack).a_low >= gaussian_floor(mu) - 1e-9


# ---------------------------------------------------------------- admissibility


def test_admissibility_painless_flag():
    compact = build_stack(truncated_gaussian(0.1), 0.5, 1, 128)
    rep = admissibility(compact)
    assert rep.passed and rep.painless
    gauss = stack_case(n=128)
    rep2 = admissibility(gauss)
    assert rep2.passed and not rep2.painless


@pytest.mark.parametrize("threshold", [OVERLAP_THRESHOLD, -0.5, 0.0, 0.3])
@pytest.mark.parametrize("case", [
    (gaussian_window, 0.5, 0, 48),
    (gaussian_window, 0.5, 0, 256),  # 513 bands
    (gaussian_window, 0.5, 1, 16),  # extents span the whole grid
    (lambda: truncated_gaussian(0.1), 0.5, 0.5, 64),
    (lambda: truncated_gaussian(0.01), 8.0, 1, 256),  # gapped
    (signed_window, 0.5, 0, 48),
    (signed_window, 3.0, 1, 48),
])
def test_admissibility_equals_dense_scan(case, threshold):
    window, mu, alpha, n = case
    stack = build_stack(window(), mu, alpha, n)
    mat = np.stack([stack.band(p) for p in stack.p_list])
    c3 = float(mat.max(axis=0).min())
    want = (float(mat.max()), int((mat > threshold).sum(axis=0).max()), c3, c3 > 0.0)
    rep = admissibility(stack, threshold)
    assert (rep.c1, rep.c2, rep.c3, rep.passed) == want


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_large_stack_memory_stays_on_the_supports():
    # dense bands here would hold 1.07 GB: 16385 bands of 8192 bins.  The
    # child reads VmHWM, the peak RSS of its own image; its ru_maxrss
    # would also count the test process it was spawned from.
    code = ("from stockframe.window import admissibility, build_stack, gaussian_window\n"
            "assert admissibility(build_stack(gaussian_window(), 0.5, 0, 8192)).passed\n"
            "print(open('/proc/self/status').read())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(re.search(r"^VmHWM:\s*(\d+) kB", proc.stdout, re.M).group(1))
    assert peak_kib < 256 * 1024


def test_admissibility_fails_on_gapped_stack():
    # spacing far beyond the support leaves holes in the band sum
    stack = build_stack(truncated_gaussian(0.01), 8.0, 1, 256)
    assert not admissibility(stack).passed
