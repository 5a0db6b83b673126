"""Container formats: byte layout, round trips, malformed input."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockframe.containers import (
    DOMAIN_FREQUENCY,
    DOMAIN_TIME,
    ContainerError,
    read_csv_signal,
    read_sfr1,
    read_sfr1_all,
    read_sfr2,
    write_csv_signal,
    write_sfr1,
    write_sfr2,
)
from stockframe.spectral import FrequencyGrid, SpectralSignal, TimeSamples


def handmade_sfr1(n, domain, values):
    """Assemble the byte layout directly from the format description."""
    blob = b"SFR1" + struct.pack("<I", n) + struct.pack("B", domain)
    for v in values:
        blob += struct.pack("<dd", v.real, v.imag)
    return blob


# ---------------------------------------------------------------- sfr1


def test_sfr1_bytes_match_handmade_layout(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = TimeSamples(FrequencyGrid(6), vals)
    path = tmp_path / "a.sfr1"
    write_sfr1(path, x)
    assert path.read_bytes() == handmade_sfr1(6, DOMAIN_TIME, vals)


def test_sfr1_reads_handmade_file(tmp_path):
    vals = np.array([1 + 2j, -0.5j, 3.0, 0.0])
    path = tmp_path / "hand.sfr1"
    path.write_bytes(handmade_sfr1(4, DOMAIN_FREQUENCY, vals))
    rec = read_sfr1(path)
    assert isinstance(rec, SpectralSignal)
    assert np.array_equal(rec.coeffs, vals)


@given(
    n=st.sampled_from([4, 8, 10]),
    domain=st.sampled_from([DOMAIN_TIME, DOMAIN_FREQUENCY]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_sfr1_round_trip_is_bit_exact(tmp_path_factory, n, domain, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grid = FrequencyGrid(n)
    sig = TimeSamples(grid, vals) if domain == DOMAIN_TIME else SpectralSignal(grid, vals)
    path = tmp_path_factory.mktemp("sfr") / "x.sfr1"
    write_sfr1(path, sig)
    rec = read_sfr1(path)
    assert type(rec) is type(sig)
    got = rec.values if domain == DOMAIN_TIME else rec.coeffs
    assert np.array_equal(got, vals)


def test_sfr1_multi_record_append(tmp_path):
    grid = FrequencyGrid(4)
    path = tmp_path / "multi.sfr1"
    sigs = [TimeSamples(grid, np.full(4, k, dtype=complex)) for k in range(3)]
    write_sfr1(path, sigs[0])
    for s in sigs[1:]:
        write_sfr1(path, s, append=True)
    recs = read_sfr1_all(path)
    assert len(recs) == 3
    for k, rec in enumerate(recs):
        assert np.array_equal(rec.values, sigs[k].values)


def test_sfr1_malformed_inputs(tmp_path):
    path = tmp_path / "bad.sfr1"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ContainerError):
        read_sfr1(path)
    path.write_bytes(handmade_sfr1(8, DOMAIN_TIME, np.zeros(8, complex))[:-7])
    with pytest.raises(ContainerError):
        read_sfr1(path)
    path.write_bytes(b"SFR1" + struct.pack("<I", 4) + struct.pack("B", 9) + b"\x00" * 64)
    with pytest.raises(ContainerError):
        read_sfr1(path)
    path.write_bytes(b"")
    with pytest.raises(ContainerError):
        read_sfr1(path)
    assert read_sfr1_all(path) == []


def test_sfr1_rejects_non_signal(tmp_path):
    with pytest.raises(TypeError):
        write_sfr1(tmp_path / "x.sfr1", np.zeros(4))


# ---------------------------------------------------------------- sfr2


@pytest.mark.parametrize("shape", [(8,), (4, 6), (4, 4, 4)])
def test_sfr2_round_trip(tmp_path, shape):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "x.sfr2"
    write_sfr2(path, vals, DOMAIN_FREQUENCY)
    back, domain = read_sfr2(path)
    assert domain == DOMAIN_FREQUENCY
    assert back.shape == shape
    assert np.array_equal(back, vals)


def test_sfr2_header_layout(tmp_path):
    vals = np.zeros((2, 3), dtype=complex)
    path = tmp_path / "x.sfr2"
    write_sfr2(path, vals, DOMAIN_TIME)
    raw = path.read_bytes()
    assert raw[:4] == b"SFR2"
    assert struct.unpack("<I", raw[4:8]) == (2,)
    assert struct.unpack("<II", raw[8:16]) == (2, 3)
    assert raw[16] == DOMAIN_TIME
    assert len(raw) == 17 + 16 * 6


def test_sfr2_malformed_inputs(tmp_path):
    path = tmp_path / "bad.sfr2"
    path.write_bytes(b"SFR1" + b"\x00" * 16)
    with pytest.raises(ContainerError):
        read_sfr2(path)
    path.write_bytes(b"SFR2" + struct.pack("<I", 99))
    with pytest.raises(ContainerError):
        read_sfr2(path)
    with pytest.raises(ValueError):
        write_sfr2(tmp_path / "y.sfr2", np.zeros((2, 2), complex), domain=7)


def test_sfr2_writer_refuses_a_rank_the_reader_refuses(tmp_path):
    # a 9-D record was written, and read_sfr2 refused it as implausible
    path = tmp_path / "x.sfr2"
    with pytest.raises(ValueError, match="dimension 1..8, got 9"):
        write_sfr2(path, np.zeros((1,) * 9, complex), DOMAIN_TIME)
    assert not path.exists()


def test_sfr2_writer_refuses_an_unpackable_shape_before_opening(tmp_path):
    # an axis of 2^32 raised struct.error after "wb" had cut the file to
    # its magic and rank
    path = tmp_path / "x.sfr2"
    write_sfr2(path, np.ones((2, 2), complex), DOMAIN_TIME)
    before = path.read_bytes()
    assert len(before) == 81
    with pytest.raises(ValueError, match="u32"):
        write_sfr2(path, np.zeros((0, 2 ** 32), complex), DOMAIN_TIME)
    with pytest.raises(ValueError, match="domain flag"):
        write_sfr2(path, np.zeros((2, 2), complex), domain=2)
    assert path.read_bytes() == before


def test_sfr2_eight_dimensional_round_trip(tmp_path):
    shape = (2, 1, 3, 1, 2, 1, 1, 2)
    vals = np.arange(24, dtype=float).reshape(shape) * (1 - 2j)
    path = tmp_path / "x.sfr2"
    write_sfr2(path, vals, DOMAIN_FREQUENCY)
    back, domain = read_sfr2(path)
    assert domain == DOMAIN_FREQUENCY and back.shape == shape
    assert np.array_equal(back, vals)


def test_sfr_payload_keeps_every_bit(tmp_path):
    # every pair of -0.0, +-inf, nan and plain real and imaginary parts,
    # set part by part: no arithmetic forms them, and none may move one
    parts = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -2.5])
    vals = np.empty(parts.size ** 2, dtype=complex)
    vals.real, vals.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
    payload = vals.astype("<c16").tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_sfr1(tmp_path / "x.sfr1", SpectralSignal(FrequencyGrid(vals.size), vals))
        one = read_sfr1(tmp_path / "x.sfr1").coeffs
        write_sfr2(tmp_path / "x.sfr2", vals.reshape(parts.size, parts.size), DOMAIN_TIME)
        two, _ = read_sfr2(tmp_path / "x.sfr2")
    assert (tmp_path / "x.sfr1").read_bytes()[9:] == payload
    assert (tmp_path / "x.sfr2").read_bytes()[17:] == payload
    assert one.tobytes() == payload and two.tobytes() == payload
    two[0, 0] = 1.0  # the caller owns the array read_sfr2 returns


# ---------------------------------------------------------------- csv


def test_csv_round_trip_and_text_shape(tmp_path):
    rng = np.random.default_rng(9)
    idx = np.arange(-3, 3)
    vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    path = tmp_path / "sig.csv"
    write_csv_signal(path, idx, vals, index_name="j")
    text = path.read_text().strip().splitlines()
    assert text[0] == "j,re,im"
    assert len(text) == 7
    # repr round trip keeps every bit of the float64 payload
    back_idx, back_vals = read_csv_signal(path)
    assert np.array_equal(back_idx, idx.astype(float))
    assert np.array_equal(back_vals, vals)


def test_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("j,re,im\n0,1.0\n")
    with pytest.raises(ContainerError):
        read_csv_signal(path)
    path.write_text("")
    with pytest.raises(ContainerError):
        read_csv_signal(path)
