"""Request paths: each full-grid array is made once.

The transforms, the basis, the frame results and the SFR readers hand
over the arrays they make, so their outputs must keep the bits of the
plain expressions, be read-only signals the caller owns, share no memory
with their inputs, and stay under a ceiling of full grids held at their
peak (tracemalloc, which numpy reports its buffers to).
"""

import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stockframe import basis, frame1d, tiling
from stockframe.containers import (DOMAIN_FREQUENCY, DOMAIN_TIME, read_sfr1, read_sfr2, write_sfr1,
                                   write_sfr2)
from stockframe.spectral import FrequencyGrid, SpectralSignal, TimeSamples, _adopt, from_spectrum, to_spectrum
from stockframe.window import gaussian_window, truncated_gaussian


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def noise(rng, shape, dtype=np.complex128):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x.astype(dtype) if np.dtype(dtype).kind == "c" else x.real.astype(dtype)


def scribble(arr):
    """Overwrite an input after the call, frozen or not."""
    arr.flags.writeable = True
    arr[...] = 7.0


def check_owned(result, source):
    """result is read-only, shares no memory with source, and keeps its
    bits when source is overwritten."""
    assert not result.flags.writeable
    assert not np.shares_memory(result, source)
    before = result.copy()
    scribble(source)
    assert same_bits(result, before)


# ---------------------------------------------------------------- bits


@pytest.mark.parametrize("n", [48, 2048])
def test_1d_transforms_keep_the_bits_of_the_plain_expressions(n):
    rng = np.random.default_rng(n)
    x = TimeSamples(FrequencyGrid(n), noise(rng, n))
    s = SpectralSignal(FrequencyGrid(n), noise(rng, n))
    assert same_bits(to_spectrum(x).coeffs, np.fft.fftshift(np.fft.fft(x.values)) / n)
    assert same_bits(from_spectrum(s).values, np.fft.ifft(np.fft.ifftshift(s.coeffs)) * n)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64])
@pytest.mark.parametrize("shape", [(48, 48), (64, 64), (16, 16, 16)])
def test_nd_transforms_keep_the_bits_and_dtype_of_the_plain_expressions(shape, dtype):
    rng = np.random.default_rng(len(shape))
    v = noise(rng, shape, dtype)
    fwd, inv = tiling.to_spectrum_nd(v), tiling.from_spectrum_nd(v)
    assert same_bits(fwd, np.fft.fftshift(np.fft.fftn(v)) / v.size)
    assert same_bits(inv, np.fft.ifftn(np.fft.ifftshift(v)) * v.size)
    for out in (fwd, inv):  # plain arrays the caller owns, as before
        assert out.flags.writeable and not np.shares_memory(out, v)


@pytest.mark.parametrize("domain", [DOMAIN_TIME, DOMAIN_FREQUENCY])
@pytest.mark.parametrize("n", [48, 2048])
def test_sfr1_reader_and_writer_keep_the_bytes(tmp_path, n, domain):
    rng = np.random.default_rng(n + domain)
    vals = noise(rng, n)
    signal = (TimeSamples if domain == DOMAIN_TIME else SpectralSignal)(FrequencyGrid(n), vals)
    path = tmp_path / "x.sfr1"
    write_sfr1(path, signal)
    blob = path.read_bytes()
    assert blob == b"SFR1" + struct.pack("<IB", n, domain) + vals.astype("<c16").tobytes()
    back = read_sfr1(path)
    got = back.values if domain == DOMAIN_TIME else back.coeffs
    assert same_bits(got, np.frombuffer(blob[9:], "<c16").astype(np.complex128))
    assert not got.flags.writeable


@pytest.mark.parametrize("shape", [(48, 48), (64, 64), (16, 16, 16)])
def test_sfr2_reader_and_writer_keep_the_bytes(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    vals = noise(rng, shape)
    path = tmp_path / "x.sfr2"
    write_sfr2(path, vals, DOMAIN_FREQUENCY)
    blob = path.read_bytes()
    head = b"SFR2" + struct.pack(f"<I{len(shape)}IB", len(shape), *shape, DOMAIN_FREQUENCY)
    assert blob == head + vals.astype("<c16").tobytes()
    back, domain = read_sfr2(path)
    assert domain == DOMAIN_FREQUENCY
    assert same_bits(back, np.frombuffer(blob[len(head):], "<c16").astype(np.complex128).reshape(shape))
    # the caller owns the array read_sfr2 returns
    assert back.flags.writeable
    back[0] = 1.0


# ---------------------------------------------------------------- ownership


def test_1d_transforms_hand_over_owned_read_only_results():
    rng = np.random.default_rng(1)
    x = TimeSamples(FrequencyGrid(64), noise(rng, 64))
    s = to_spectrum(x)
    check_owned(s.coeffs, x.values)
    check_owned(from_spectrum(s).values, s.coeffs)


def test_adopt_names_each_payload_and_checks_it():
    grid = FrequencyGrid(16)
    vals = noise(np.random.default_rng(2), 16)
    assert same_bits(_adopt(TimeSamples, grid, vals.copy()).values, TimeSamples(grid, vals).values)
    assert same_bits(_adopt(SpectralSignal, grid, vals.copy()).coeffs, SpectralSignal(grid, vals).coeffs)
    for bad in (vals[:8].copy(), vals.astype(np.complex64)):
        with pytest.raises(ValueError):
            _adopt(TimeSamples, grid, bad)


def test_public_constructors_still_copy():
    vals = noise(np.random.default_rng(2), 16)
    for held in (TimeSamples(FrequencyGrid(16), vals).values, SpectralSignal(FrequencyGrid(16), vals).coeffs):
        assert not np.shares_memory(held, vals) and not held.flags.writeable


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_basis_results_are_owned(alpha):
    x = TimeSamples(FrequencyGrid(256), noise(np.random.default_rng(3), 256))
    coeffs = basis.analyze_fast(alpha, x)
    assert not np.shares_memory(coeffs.values, x.values)
    check_owned(basis.synthesize(coeffs).values, coeffs.values)


def test_frame_results_are_owned():
    spec = frame1d.make_frame_spec(gaussian_window(), 0.5, 4, Fraction(1, 2), 64)
    rng = np.random.default_rng(4)
    results = [
        lambda f: frame1d.synthesize(spec, frame1d.analyze(spec, f)),
        lambda f: frame1d.walnut_apply(spec, f),
        lambda f: frame1d.reconstruct(spec, f)[0],
    ]
    for result in results:
        f = SpectralSignal(spec.grid, noise(rng, 64))
        check_owned(result(f).coeffs, f.coeffs)


# ---------------------------------------------------------------- temporaries


def peak_grids(call, grid_bytes):
    """The call's tracemalloc peak in grids of grid_bytes."""
    call()  # plans and caches built outside the trace
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / grid_bytes
    finally:
        tracemalloc.stop()


def test_request_paths_hold_one_grid_of_temporaries(tmp_path):
    rng = np.random.default_rng(6)
    n = 1 << 16
    x = TimeSamples(FrequencyGrid(n), noise(rng, n))
    s = to_spectrum(x)
    coeffs = basis.analyze_fast(Fraction(1, 2), x)
    field = noise(rng, (128, 128))
    path = tmp_path / "x.sfr2"
    write_sfr2(path, field, DOMAIN_TIME)
    # name: (call, grid bytes, ceiling in grids); with a copy at every
    # layer these peaked at 4.0, 2.0, 3.0, 2.0 and 1.0 grids
    ceilings = {
        "synthesize": (lambda: basis.synthesize(coeffs), 16 * n, 2.25),
        "from_spectrum": (lambda: from_spectrum(s), 16 * n, 1.1),
        "from_spectrum_nd": (lambda: tiling.from_spectrum_nd(field), 16 * field.size, 1.1),
        "read_sfr2": (lambda: read_sfr2(path), 16 * field.size, 1.1),
        "write_sfr2": (lambda: write_sfr2(tmp_path / "y.sfr2", field, DOMAIN_TIME), 16 * field.size, 0.1),
    }
    peaks = {name: peak_grids(call, grid_bytes) for name, (call, grid_bytes, _) in ceilings.items()}
    assert {name: p for name, p in peaks.items() if p > ceilings[name][2]} == {}


def test_round_trips_and_norms_form_no_residual_grid():
    # the relative error walks the norms' pairwise sum leaf by leaf, with
    # no residual rec - fhat and no grid of squares: these peaked at 3.01,
    # 3.01 and 1.0 grids when both were formed
    rng = np.random.default_rng(7)
    spec_nd = tiling.make_nd_frame_spec(truncated_gaussian(0.1), 0.5, 4, 2, 128)
    fhat = noise(rng, (128, 128))
    n = 16384
    spec = frame1d.make_frame_spec(gaussian_window(), 0.5, 8, Fraction(0), n)
    f = SpectralSignal(FrequencyGrid(n), noise(rng, n))
    x = TimeSamples(FrequencyGrid(1 << 16), noise(rng, 1 << 16))
    ceilings = {
        "reconstruct_nd": (lambda: tiling.reconstruct_nd(spec_nd, fhat), 16 * fhat.size, 1.6),
        "reconstruct": (lambda: frame1d.reconstruct(spec, f), 16 * n, 1.9),
        "norm": (x.norm, 16 * x.values.size, 0.1),
    }
    peaks = {name: peak_grids(call, grid_bytes) for name, (call, grid_bytes, _) in ceilings.items()}
    assert {name: p for name, p in peaks.items() if p > ceilings[name][2]} == {}
