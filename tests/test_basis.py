"""Orthonormal basis: literal-sum oracle, Gram identity, round trip."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockframe import basis
from stockframe.basis import (
    ELEMENT_SIZE_CAP,
    BasisIndex,
    DostCoefficients,
    analyze_fast,
    analyze_naive,
    band_layout,
    basis_element,
    concentration,
    gram_deviation,
    gram_matrix,
    synthesize,
)
from stockframe.partition import partition_covering
from stockframe.spectral import FrequencyGrid, SpectralSignal, TimeSamples, from_spectrum, to_spectrum

ALPHAS = [0, 0.25, 0.5, 0.75, 1]


def random_bandlimited(rng, n):
    """Random signal with no Nyquist content, i.e. inside the basis span."""
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeffs[0] = 0.0  # -n/2 row
    return from_spectrum(SpectralSignal(FrequencyGrid(n), coeffs))


def literal_coefficient(alpha, x, p, tau):
    """Definitional inner product, no FFT anywhere.

    c_{p,tau} = (1/n) sum_t x(t) conj(e_{p,tau}(t)) with
    e_{p,tau}(t) = w^{-1/2} sum_{eta in band} e^{2 pi i eta (t - tau/w)}.
    """
    layout = band_layout(alpha, x.grid.size)
    lo, hi = layout.bands[p]
    w = hi - lo
    t = x.grid.times()
    acc = 0.0 + 0.0j
    for m in range(x.grid.size):
        e = sum(np.exp(2j * np.pi * eta * (t[m] - tau / w)) for eta in range(lo, hi))
        acc += x.values[m] * np.conj(e) / np.sqrt(w)
    return acc / x.grid.size


# ---------------------------------------------------------------- layout


def test_layout_covers_grid_without_nyquist():
    for alpha in ALPHAS:
        layout = band_layout(alpha, 64)
        seen = []
        for p in layout.p_list:
            lo, hi = layout.bands[p]
            assert lo < hi
            seen.extend(range(lo, hi))
        assert sorted(seen) == list(range(-31, 32))


def test_layout_clip_flag():
    # alpha = 1/2 at n = 64: the ladder band [28, 33) overshoots the fold
    layout = band_layout(0.5, 64)
    assert layout.clipped
    assert layout.bands[max(layout.p_list)] == (28, 32)
    # dyadic bands end exactly on powers of two, so nothing is cut
    assert not band_layout(1, 64).clipped
    assert not band_layout(0, 64).clipped


def test_element_rejects_band_outside_grid():
    with pytest.raises(ValueError):
        basis_element(1, BasisIndex(6, 0), 64)  # [32, 64) beyond half = 32


def test_layout_rejects_bad_sizes():
    with pytest.raises(ValueError):
        band_layout(0.5, 7)
    with pytest.raises(ValueError):
        band_layout(0.5, 2)


# ---------------------------------------------------------------- oracle chain


@pytest.mark.parametrize("alpha", [0, 0.5, 1])
def test_analyze_naive_matches_literal_sums(alpha):
    rng = np.random.default_rng(17)
    x = TimeSamples(FrequencyGrid(16), rng.standard_normal(16) + 1j * rng.standard_normal(16))
    coeffs = analyze_naive(alpha, x)
    for p in coeffs.layout.p_list:
        lo, hi = coeffs.layout.bands[p]
        for tau in range(hi - lo):
            want = literal_coefficient(alpha, x, p, tau)
            assert abs(coeffs[(p, tau)] - want) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_analyze_fast_matches_naive(alpha):
    rng = np.random.default_rng(23)
    for n in (16, 64):
        x = TimeSamples(FrequencyGrid(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
        fast = analyze_fast(alpha, x)
        naive = analyze_naive(alpha, x)
        for p in fast.layout.p_list:
            assert np.max(np.abs(fast.data[p] - naive.data[p])) < 1e-10


@given(alpha=st.sampled_from(ALPHAS), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fast_naive_property(alpha, seed):
    rng = np.random.default_rng(seed)
    x = TimeSamples(FrequencyGrid(24), rng.standard_normal(24) + 1j * rng.standard_normal(24))
    fast = analyze_fast(alpha, x)
    naive = analyze_naive(alpha, x)
    diff = max(float(np.max(np.abs(fast.data[p] - naive.data[p]))) for p in fast.layout.p_list)
    assert diff < 1e-10


# ---------------------------------------------------------------- run batching


def reference_bands(alpha, n):
    """Band plan of the ladder one interval at a time, the last band clipped to n/2."""
    half = n // 2
    bands = {0: (0, 1)}
    for iv in partition_covering(alpha, half).intervals[1:]:
        hi = min(iv.stop, half)
        bands[iv.p] = (iv.start, hi)
        bands[-iv.p] = (-hi + 1, -iv.start + 1)
    return dict(sorted(bands.items()))


def reference_analyze(bands, x):
    """Per-band analysis: one length-w inverse DFT of each rotated band slice."""
    xhat = to_spectrum(x).coeffs
    half = x.grid.half
    data = {}
    for p, (lo, hi) in bands.items():
        w = hi - lo
        band = xhat[lo + half : hi + half]
        if w == 1:
            data[p] = band.copy()
        else:
            data[p] = np.sqrt(w) * np.fft.ifft(np.roll(band, lo % w))
    return data


def reference_synthesize(bands, data, grid):
    """Per-band synthesis: one length-w forward DFT per band, rotated back."""
    half = grid.half
    spectrum = np.zeros(grid.size, dtype=np.complex128)
    for p, c in data.items():
        lo, hi = bands[p]
        w = hi - lo
        if w == 1:
            spectrum[lo + half] = c[0]
        else:
            spectrum[lo + half : hi + half] = np.roll(np.fft.fft(c), -lo % w)[:w] / np.sqrt(w)
    return from_spectrum(SpectralSignal(grid, spectrum)).values


@pytest.mark.parametrize("n", [16, 64, 2048])
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(3, 10), Fraction(1, 2),
                                   Fraction(3, 4), Fraction(1)])
def test_run_batched_basis_is_bit_identical_to_per_band_reference(alpha, n):
    rng = np.random.default_rng(43)
    x = TimeSamples(FrequencyGrid(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
    bands = reference_bands(alpha, n)
    layout = band_layout(alpha, n)
    assert layout.bands == bands
    assert layout.p_list == list(bands)
    assert all(layout.width(p) == hi - lo for p, (lo, hi) in bands.items())
    assert layout.clipped == (partition_covering(alpha, n // 2).stop > n // 2)

    coeffs = analyze_fast(alpha, x)
    want = reference_analyze(bands, x)
    assert list(coeffs.data) == list(want)
    assert len(coeffs.data) == len(want)
    for p, c in want.items():
        view = coeffs.data[p]
        assert np.array_equal(view, c)
        assert not view.flags.writeable
        assert all(coeffs[(p, tau)] == view[tau] for tau in range(len(c)))
    assert np.array_equal(synthesize(coeffs).values, reference_synthesize(bands, want, x.grid))


def bits(values):
    return np.ascontiguousarray(values).view(np.int64)


@pytest.mark.parametrize("n", [6, 66, 2048, 1 << 16])
@pytest.mark.parametrize("alpha", [Fraction(1, 7), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)])
def test_width_grouped_basis_is_bit_identical_to_per_band_loop(alpha, n):
    # covers clipped last bands and widths shared by a mirrored and a positive run
    rng = np.random.default_rng(47)
    x = TimeSamples(FrequencyGrid(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
    bands = reference_bands(alpha, n)
    want = reference_analyze(bands, x)
    coeffs = analyze_fast(alpha, x)
    assert np.array_equal(bits(coeffs.values), bits(np.concatenate(list(want.values()))))
    assert np.array_equal(bits(synthesize(coeffs).values),
                          bits(reference_synthesize(bands, want, x.grid)))


def test_repeated_analyze_fast_builds_the_layout_once(monkeypatch):
    original = basis.band_layout
    calls = []

    def counting(alpha, n):
        calls.append((alpha, n))
        return original(alpha, n)

    monkeypatch.setattr(basis, "band_layout", counting)
    basis._plan.cache_clear()
    rng = np.random.default_rng(48)
    x = TimeSamples(FrequencyGrid(2048), rng.standard_normal(2048) + 1j * rng.standard_normal(2048))
    runs = [analyze_fast(0.5, x) for _ in range(3)]
    ys = [synthesize(c) for c in runs]
    assert calls == [(Fraction(1, 2), 2048)]
    for c, y in zip(runs[1:], ys[1:]):
        assert np.array_equal(bits(c.values), bits(runs[0].values))
        assert np.array_equal(bits(y.values), bits(ys[0].values))


def test_synthesize_reads_a_separately_built_layout():
    basis._plan.cache_clear()
    rng = np.random.default_rng(49)
    n = 66
    layout = band_layout(Fraction(1, 2), n)
    values = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    y = synthesize(DostCoefficients(layout, values))
    data = {p: values[lo + n // 2 - 1 : hi + n // 2 - 1] for p, (lo, hi) in layout.bands.items()}
    assert np.array_equal(bits(y.values), bits(reference_synthesize(layout.bands, data, layout.grid)))
    x = TimeSamples(layout.grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    coeffs = analyze_fast(0.5, x)
    again = synthesize(DostCoefficients(band_layout(0.5, n), coeffs.values.copy()))
    assert np.array_equal(bits(again.values), bits(synthesize(coeffs).values))


def test_plan_cache_keys_on_the_coerced_alpha():
    x = TimeSamples(FrequencyGrid(64), np.arange(64.0))
    analyze_fast(0.1, x)  # 1/10
    # equal to the float 0.1 and hashed alike, but its denominator is 2^55
    with pytest.raises(ValueError, match="denominator"):
        analyze_fast(Fraction(0.1), x)
    assert np.array_equal(bits(analyze_fast(0.3, x).values),
                          bits(analyze_fast(Fraction(3, 10), x).values))


def test_synthesize_rejects_coefficients_of_the_wrong_length():
    layout = band_layout(0.5, 64)
    with pytest.raises(ValueError, match="expected 63 coefficients"):
        synthesize(DostCoefficients(layout, np.zeros(64, dtype=complex)))


def test_band_views_are_read_only_and_keyed_by_p():
    coeffs = analyze_fast(0.5, TimeSamples(FrequencyGrid(64), np.arange(64.0)))
    with pytest.raises(ValueError):
        coeffs.data[3][0] = 0.0
    assert 31 not in coeffs.data  # |p| beyond the layout
    with pytest.raises(KeyError):
        coeffs.data[-max(coeffs.layout.p_list) - 1]
    assert coeffs[BasisIndex(4, 1)] == coeffs.data[4][1]  # band 4 is [4, 6)


# ---------------------------------------------------------------- orthonormality


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gram_is_identity(alpha):
    indices, gram = gram_matrix(alpha, 32)
    assert len(indices) == 31  # n - 1 elements; Nyquist row is excluded
    assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-10
    assert gram_deviation(alpha, 32) < 1e-10


def test_elements_have_unit_norm():
    for alpha in (0, 0.5, 1):
        for p in (-3, 0, 2):
            e = basis_element(alpha, BasisIndex(p, 0), 64)
            assert e.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- round trip


@pytest.mark.parametrize("alpha", ALPHAS)
def test_round_trip_on_basis_span(alpha):
    rng = np.random.default_rng(31)
    x = random_bandlimited(rng, 64)
    back = synthesize(analyze_fast(alpha, x))
    assert np.max(np.abs(back.values - x.values)) < 1e-10 * max(1.0, float(np.max(np.abs(x.values))))


def test_energy_is_preserved():
    rng = np.random.default_rng(37)
    x = random_bandlimited(rng, 64)
    coeffs = analyze_fast(0.5, x)
    assert coeffs.energy() == pytest.approx(x.norm() ** 2, rel=1e-12)


def test_nyquist_row_is_invisible():
    # the basis spans everything except the -n/2 line; analysis kills it
    grid = FrequencyGrid(16)
    spec = np.zeros(16, dtype=complex)
    spec[0] = 1.0
    x = from_spectrum(SpectralSignal(grid, spec))
    coeffs = analyze_fast(0.5, x)
    assert coeffs.energy() < 1e-25
    assert synthesize(coeffs).norm() < 1e-12


# ---------------------------------------------------------------- degeneration


def test_alpha_zero_reduces_to_fourier():
    rng = np.random.default_rng(41)
    x = TimeSamples(FrequencyGrid(32), rng.standard_normal(32) + 1j * rng.standard_normal(32))
    coeffs = analyze_fast(0, x)
    spec = to_spectrum(x)
    for p in coeffs.layout.p_list:
        lo, hi = coeffs.layout.bands[p]
        assert hi - lo == 1
        assert abs(coeffs[(p, 0)] - spec[lo]) < 1e-12


# ---------------------------------------------------------------- elements


def test_basis_element_is_translated_band_sum():
    # e_{p,tau} is the tau/w translate of e_{p,0}
    alpha, n, p = 0.5, 64, 4
    layout = band_layout(alpha, n)
    lo, hi = layout.bands[p]
    w = hi - lo
    base = basis_element(alpha, BasisIndex(p, 0), n)
    shifted = basis_element(alpha, BasisIndex(p, 1), n)
    t = base.grid.times()
    phase = sum(
        np.exp(2j * np.pi * eta * (t - 1.0 / w)) for eta in range(lo, hi)
    ) / np.sqrt(w)
    assert np.max(np.abs(shifted.values - phase)) < 1e-12


def test_element_rejects_out_of_range_tau():
    with pytest.raises(ValueError):
        basis_element(0.5, BasisIndex(4, 99), 64)


# ---------------------------------------------------------------- concentration


@pytest.mark.parametrize("n", [ELEMENT_SIZE_CAP + 2, 1 << 30])
def test_element_and_concentration_refuse_grids_past_the_cap(n):
    message = f"basis element grid capped at n = {ELEMENT_SIZE_CAP}, got {n}"
    with pytest.raises(ValueError, match=message):
        basis_element(0.5, BasisIndex(4, 1), n)
    with pytest.raises(ValueError, match=message):
        concentration(0.5, BasisIndex(4, 1), n)


def test_concentration_is_monotone_in_cells():
    idx = BasisIndex(5, 3)
    half = concentration(1, idx, 256, cells=0.5)
    full = concentration(1, idx, 256, cells=1.0)
    assert 0 < half < full <= 1.0


def test_concentration_deep_negative_band():
    # regression: |p| used to be fed to the ladder as a frequency
    val = concentration(0.5, BasisIndex(-8, 0), 4096)
    assert 0.8 < val <= 1.0
