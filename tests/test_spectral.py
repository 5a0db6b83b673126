"""Grid model: transform normalization, inner products, periodization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stockframe.spectral import (
    FrequencyGrid,
    SpectralSignal,
    TimeSamples,
    _norm,
    from_spectrum,
    poisson_residual,
    to_spectrum,
)
from stockframe.window import gaussian_window


def dft_oracle(values: np.ndarray) -> np.ndarray:
    """Direct O(n^2) sum: coeff(j) = (1/n) sum_m x_m e^{-2 pi i j m / n}, j ascending."""
    n = values.size
    out = np.empty(n, dtype=complex)
    for idx, j in enumerate(range(-n // 2, n // 2)):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += values[m] * np.exp(-2j * np.pi * j * m / n)
        out[idx] = acc / n
    return out


def random_time(rng, n):
    return TimeSamples(FrequencyGrid(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))


# ---------------------------------------------------------------- grid


def test_grid_frequencies_ascending_and_times():
    grid = FrequencyGrid(8)
    assert grid.half == 4
    assert list(grid.frequencies()) == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert np.allclose(grid.times(), np.arange(8) / 8)
    assert grid.index_of(-4) == 0
    assert grid.index_of(3) == 7


def test_grid_rejects_odd_and_tiny_sizes():
    for bad in (0, 2, 3, 7, -8):
        with pytest.raises(ValueError):
            FrequencyGrid(bad)


def test_grid_index_of_range():
    grid = FrequencyGrid(8)
    with pytest.raises(ValueError):
        grid.index_of(4)
    with pytest.raises(ValueError):
        grid.index_of(-5)


def test_signal_length_mismatch():
    grid = FrequencyGrid(8)
    with pytest.raises(ValueError):
        TimeSamples(grid, np.zeros(7))
    with pytest.raises(ValueError):
        SpectralSignal(grid, np.zeros(9))


def test_signal_arrays_are_frozen():
    x = random_time(np.random.default_rng(0), 8)
    with pytest.raises(ValueError):
        x.values[0] = 1.0


# ---------------------------------------------------------------- transform


def test_to_spectrum_matches_direct_sum():
    rng = np.random.default_rng(7)
    x = random_time(rng, 16)
    got = to_spectrum(x).coeffs
    want = dft_oracle(x.values)
    assert np.max(np.abs(got - want)) < 1e-12


def test_pure_tone_lands_on_one_coefficient():
    grid = FrequencyGrid(32)
    for j0 in (-16, -5, 0, 3, 15):
        x = TimeSamples(grid, np.exp(2j * np.pi * j0 * grid.times()))
        coeffs = to_spectrum(x).coeffs
        want = np.zeros(32)
        want[grid.index_of(j0)] = 1.0
        assert np.max(np.abs(coeffs - want)) < 1e-13


@given(
    values=hnp.arrays(
        dtype=np.complex128,
        shape=st.sampled_from([4, 8, 12, 16]),
        elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_round_trip_is_identity(values):
    x = TimeSamples(FrequencyGrid(values.size), values)
    back = from_spectrum(to_spectrum(x))
    scale = max(1.0, float(np.max(np.abs(values))))
    assert np.max(np.abs(back.values - x.values)) < 1e-12 * scale


def test_parseval_and_dot_normalization():
    rng = np.random.default_rng(11)
    x, y = random_time(rng, 64), random_time(rng, 64)
    xs, ys = to_spectrum(x), to_spectrum(y)
    # plain time dot carries no 1/n, so it is n times the coefficient dot
    assert abs(x.dot(y) - 64 * xs.dot(ys)) < 1e-10
    # both norms read L2([0,1)): time side divides by sqrt(n)
    assert abs(x.norm() - xs.norm()) < 1e-12
    assert abs(x.norm() - np.linalg.norm(x.values) / 8.0) < 1e-14


def test_norm_scales_by_powers_of_two_bit_for_bit():
    # the squares of parts scaled by 2^-600 underflow and by 2^600 overflow;
    # the norm rescales there, exactly, with no warning
    x = random_time(np.random.default_rng(11), 2048).values
    base = _norm(x)
    for k in range(-600, 601, 50):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _norm(x * 2.0 ** k) == base * 2.0 ** k, k
    assert _norm(np.zeros(4, dtype=complex)) == 0.0
    assert _norm(np.array([5e-324j])) == 5e-324


def test_spectral_getitem_by_signed_frequency():
    grid = FrequencyGrid(8)
    s = SpectralSignal(grid, np.arange(8, dtype=complex))
    assert s[-4] == 0
    assert s[0] == 4
    assert s[3] == 7


# ---------------------------------------------------------------- periodization


def test_poisson_residual_small_for_gaussian():
    win = gaussian_window()
    xs = np.linspace(0.0, 1.0, 17)
    for gamma in (0.5, 1.0, 2.0):
        res = poisson_residual(win.time_profile, win.freq_profile, gamma, xs)
        assert res.shape == xs.shape
        assert float(res.max()) < 1e-12


def test_poisson_residual_validates_inputs():
    win = gaussian_window()
    with pytest.raises(ValueError):
        poisson_residual(win.time_profile, win.freq_profile, 0.0, 0.1)
    with pytest.raises(ValueError):
        poisson_residual(None, win.freq_profile, 1.0, 0.1)
