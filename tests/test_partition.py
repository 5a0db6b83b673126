"""Partition recurrence: exact arithmetic, covering bounds, locate."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockframe.partition import (
    MAX_DENOMINATOR,
    AlphaPartition,
    build_partition,
    coerce_alpha,
    covering_bounds_hold,
    floor_power,
    partition_covering,
)

ALPHAS = [Fraction(0), Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5), Fraction(1)]


def floor_power_oracle(i: int, alpha: Fraction) -> int:
    """Independent floor(i**alpha): bracket then bisect in exact integers."""
    a, b = alpha.numerator, alpha.denominator
    if a == 0:
        return 1
    target = i**a
    hi = 1
    while hi**b <= target:
        hi *= 2
    lo = 0
    while lo < hi - 1:  # invariant: lo**b <= target < hi**b
        mid = (lo + hi) // 2
        if mid**b <= target:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------- floor_power


@pytest.mark.parametrize("alpha", ALPHAS)
def test_floor_power_matches_counting_oracle(alpha):
    for i in range(1, 200):
        assert floor_power(i, alpha) == floor_power_oracle(i, alpha)


@given(
    i=st.integers(min_value=1, max_value=10_000),
    num=st.integers(min_value=0, max_value=12),
    den=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_floor_power_defining_inequality(i, num, den):
    # k = floor(i**alpha) iff k**b <= i**a < (k+1)**b, checked in integers
    if num > den:
        num, den = den, num  # keep alpha <= 1
    alpha = Fraction(num, den)
    k = floor_power(i, alpha)
    a, b = alpha.numerator, alpha.denominator
    assert k**b <= i**a < (k + 1) ** b


def test_floor_power_float_seed_correction():
    # i**(a/b) in floats can land on the wrong side of an exact power;
    # cubes are exact integers so the answer is forced
    for k in (10**5, 10**5 + 1):
        assert floor_power(k**3, Fraction(1, 3)) == k


def test_floor_power_past_the_float_range():
    # float(i) overflows above about 1.8e308; the seed comes from the bit
    # length there and is corrected exactly
    for k in (2**600, 3**400 + 1):
        assert floor_power(k**2, Fraction(1, 2)) == k
        assert floor_power(k**2 - 1, Fraction(1, 2)) == k - 1
    assert floor_power(2**1100 + 1, Fraction(1)) == 2**1100 + 1
    assert floor_power(2**1100, Fraction(3, 4)) == 2**825


def test_floor_power_rejects_zero():
    with pytest.raises(ValueError):
        floor_power(0, Fraction(1, 2))


# ---------------------------------------------------------------- coerce


def test_coerce_alpha_reads_decimal_intent():
    assert coerce_alpha(0.3) == Fraction(3, 10)
    assert coerce_alpha(0.25) == Fraction(1, 4)
    assert coerce_alpha(1) == Fraction(1)
    assert coerce_alpha(Fraction(2, 7)) == Fraction(2, 7)


def test_coerce_alpha_range_and_type():
    with pytest.raises(ValueError):
        coerce_alpha(1.5)
    with pytest.raises(ValueError):
        coerce_alpha(-0.1)
    with pytest.raises(TypeError):
        coerce_alpha("0.5")
    with pytest.raises(TypeError):
        coerce_alpha(True)


# ---------------------------------------------------------------- recurrence


def test_unit_widths_at_alpha_zero():
    part = build_partition(0, 20)
    for p, iv in enumerate(part.intervals):
        assert (iv.start, iv.stop) == (p, p + 1)


def test_dyadic_at_alpha_one():
    part = build_partition(1, 12)
    assert (part.intervals[0].start, part.intervals[0].stop) == (0, 1)
    for p in range(1, 13):
        iv = part.intervals[p]
        assert iv.start == 2 ** (p - 1)
        assert iv.stop == 2**p


def test_half_alpha_table():
    # worked example: widths floor(sqrt(start))
    part = build_partition(0.5, 7)
    starts = [iv.start for iv in part.intervals]
    widths = [iv.width for iv in part.intervals]
    assert starts == [0, 1, 2, 3, 4, 6, 8, 10]
    assert widths == [1, 1, 1, 1, 2, 2, 2, 3]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_intervals_abut_and_widths_match_recurrence(alpha):
    part = build_partition(alpha, 60)
    for p in range(1, len(part.intervals)):
        prev, iv = part.intervals[p - 1], part.intervals[p]
        assert iv.start == prev.stop
        assert iv.width == floor_power_oracle(iv.start, coerce_alpha(alpha))
        assert iv.width >= 1


# ---------------------------------------------------------------- run storage


def recurrence(alpha, *, limit=None, p_max=None):
    """The ladder one interval at a time: (start, stop) of intervals
    0..p_max, or of every interval up to the first that reaches limit."""
    alpha = coerce_alpha(alpha)
    ivs = [(0, 1)]
    while (ivs[-1][1] < limit) if p_max is None else (len(ivs) <= p_max):
        start = ivs[-1][1]
        ivs.append((start, start + floor_power_oracle(start, alpha)))
    return ivs


def assert_matches_recurrence(part, ivs):
    assert [(iv.p, iv.start, iv.stop) for iv in part.intervals] == [
        (p, a, b) for p, (a, b) in enumerate(ivs)
    ]
    assert part.p_max == len(ivs) - 1
    assert part.stop == ivs[-1][1]
    for p, (a, b) in enumerate(ivs):
        iv = part.interval(p)
        assert (iv.p, iv.start, iv.stop) == (p, a, b)
        assert part.interval(-p) == iv
        assert part.width(p) == part.width(-p) == b - a
        if b - a <= 1024:  # dyadic widths at p = 120 are 2**119
            assert iv.frequencies().tolist() == list(range(a, b))
            # the mirror rule: the band at -p is the negated interval
            assert (-iv.frequencies()[::-1]).tolist() == list(range(-b + 1, -a + 1))
        for eta in {a, b - 1}:
            assert part.locate(eta) == p
            assert part.locate(-eta) == -p
    # maximal runs: contiguous, nonempty, and no two neighbours share a width
    runs = part.runs
    assert runs[0].p == runs[0].lo == 0
    for prev, run in zip(runs, runs[1:]):
        assert (run.p, run.lo) == (prev.p + prev.count, prev.stop)
        assert run.width != prev.width
    assert all(run.count >= 1 for run in runs)


def exact_power_limits(alpha: Fraction, top=5_000):
    """Limits at, and one either side of, the exact powers k**(1/alpha)
    <= top where floor(i**alpha) steps up (alpha = 1/b), so that runs
    end right on them."""
    b = alpha.denominator
    return sorted({k**b + d for k in range(1, int(top ** (1 / b)) + 1) for d in (-1, 0, 1)} - {0})


@pytest.mark.parametrize("alpha", ALPHAS)
def test_runs_match_recurrence(alpha):
    for limit in (1, 2, 3, 5, 16, 17, 100, 1000, 4096, 4097):
        assert_matches_recurrence(partition_covering(alpha, limit), recurrence(alpha, limit=limit))
    for p_max in (0, 1, 2, 3, 7, 40, 120):
        assert_matches_recurrence(build_partition(alpha, p_max), recurrence(alpha, p_max=p_max))


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
def test_runs_end_exactly_on_powers(alpha):
    # with alpha = 1/b the width steps from k-1 to k at the start >= k**b
    for limit in exact_power_limits(alpha):
        part = partition_covering(alpha, limit)
        assert_matches_recurrence(part, recurrence(alpha, limit=limit))
        for prev, run in zip(part.runs, part.runs[1:]):
            # a run starts at the first ladder start at or past (w + 1)**b
            assert run.lo - prev.width < (prev.width + 1) ** alpha.denominator <= run.lo
    for p_max in range(0, 60):
        assert_matches_recurrence(build_partition(alpha, p_max), recurrence(alpha, p_max=p_max))


def test_alpha_zero_is_one_run():
    part = partition_covering(0, 1 << 20)
    assert len(part.runs) == 1
    assert (part.p_max, part.stop, part.interval(-12345).start) == ((1 << 20) - 1, 1 << 20, 12345)


@given(
    num=st.integers(min_value=0, max_value=12),
    den=st.integers(min_value=1, max_value=12),
    limit=st.integers(min_value=1, max_value=10_000),
    p_max=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=100, deadline=None)
def test_runs_match_recurrence_property(num, den, limit, p_max):
    if num > den:
        num, den = den, num
    alpha = Fraction(num, den)
    assert_matches_recurrence(partition_covering(alpha, limit), recurrence(alpha, limit=limit))
    assert_matches_recurrence(build_partition(alpha, p_max), recurrence(alpha, p_max=p_max))


def test_coerce_alpha_bounds_the_denominator():
    assert coerce_alpha(Fraction(9999, MAX_DENOMINATOR)) == Fraction(9999, 10_000)
    with pytest.raises(ValueError, match="denominator"):
        coerce_alpha(0.1234567)
    with pytest.raises(ValueError, match="denominator"):
        partition_covering(Fraction(1, MAX_DENOMINATOR + 1), 10)


@pytest.mark.parametrize("alpha", [Fraction(9999, 10_000), Fraction(1, 10_000)])
def test_extreme_denominators_stay_fast(alpha):
    # one integer-root comparison per run, not one power per interval
    start = time.perf_counter()
    part = partition_covering(alpha, 1 << 15)
    assert time.perf_counter() - start < 2.0
    assert part.stop >= 1 << 15
    assert part.intervals[-2].stop < 1 << 15  # minimal


# ---------------------------------------------------------------- covering


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_covering_bounds_exact_for_large_p(alpha):
    part = build_partition(alpha, 40)
    for p in range(10, 41):
        assert covering_bounds_hold(part, p)


def test_covering_ratio_guard_at_p_zero():
    part = build_partition(0.5, 3)
    with pytest.raises(ValueError):
        covering_bounds_hold(part, 0)


def test_partition_covering_is_minimal():
    for alpha in (0.3, 0.5, 1.0):
        for limit in (1, 7, 64, 1000):
            part = partition_covering(alpha, limit)
            assert part.stop >= limit
            if part.p_max > 0:
                assert part.intervals[-2].stop < limit


def test_partition_covering_rejects_bad_limit():
    with pytest.raises(ValueError):
        partition_covering(0.5, 0)
    with pytest.raises(ValueError):
        build_partition(0.5, -1)


# ---------------------------------------------------------------- locate


@given(
    eta=st.integers(min_value=-800, max_value=800),
    alpha_idx=st.integers(min_value=0, max_value=len(ALPHAS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_locate_returns_containing_band(eta, alpha_idx):
    part = partition_covering(ALPHAS[alpha_idx], 801)
    p = part.locate(eta)
    iv = part.interval(p)
    # the mirror rule: the band at p < 0 is the negated interval at |p|
    assert iv.start <= (eta if p >= 0 else -eta) < iv.stop
    assert (p >= 0) == (eta >= 0)
    if eta > 0:
        assert part.locate(-eta) == -p


def test_locate_rejects_uncovered_frequency():
    part = build_partition(1, 4)  # stops at 16
    with pytest.raises(ValueError):
        part.locate(16)
    with pytest.raises(ValueError):
        part.locate(-16)
    assert part.locate(15) == 4


def test_partition_is_immutable():
    part = build_partition(0.5, 3)
    assert isinstance(part, AlphaPartition)
    with pytest.raises(AttributeError):
        part.alpha = Fraction(1)
