"""Binary and CSV containers for grid signals.

SFR1 (one-dimensional record):
    bytes 0..3   magic "SFR1"
    bytes 4..7   u32 little-endian grid size n
    byte  8      domain flag: 0 = time samples, 1 = spectral coefficients
    then         n complex128 little-endian (float64 re, then float64 im)

SFR2 (d-dimensional record, 1 <= d <= MAX_DIM):
    bytes 0..3   magic "SFR2"
    bytes 4..7   u32 little-endian dimension d
    then         d u32 little-endian per-axis sizes
    then         u8 domain flag as above
    then         prod(sizes) complex128 little-endian, C order over the axes

The payload is read and written as it is, with no arithmetic, so every
value keeps its bits: -0.0 parts, infinities and NaNs included.  It is
read straight into the array returned (read-only inside an SFR1 signal,
writable from read_sfr2) and written from the caller's array, with no
copy in bytes on either side; a reader takes only regular files, whose
size it checks against the header's before reading.  A writer refuses
what the reader would (a rank past MAX_DIM, an axis no u32 holds, an
unknown domain flag) before it opens the file.

An SFR1 file may hold records back to back (``read_sfr1_all`` reads
them); an SFR2 file holds one, each ``write_sfr2`` call a whole file.
CSV exports are plain ``index,re,im`` tables.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import struct
import sys
from typing import BinaryIO, Union

import numpy as np

from .spectral import FrequencyGrid, SpectralSignal, TimeSamples, _adopt

__all__ = [
    "DOMAIN_TIME",
    "DOMAIN_FREQUENCY",
    "ContainerError",
    "write_sfr1",
    "read_sfr1",
    "read_sfr1_all",
    "write_sfr2",
    "read_sfr2",
    "write_csv_signal",
    "read_csv_signal",
]

MAGIC1 = b"SFR1"
MAGIC2 = b"SFR2"

DOMAIN_TIME = 0
DOMAIN_FREQUENCY = 1

MAX_DIM = 8  # the largest SFR2 rank written or read

Signal = Union[TimeSamples, SpectralSignal]


class ContainerError(ValueError):
    """Malformed or truncated container data."""


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise ContainerError(f"truncated container: expected {count} bytes of {what}")
    return raw


def _read_domain(fh: BinaryIO) -> int:
    (domain,) = struct.unpack("B", _read_exact(fh, 1, "domain flag"))
    if domain not in (DOMAIN_TIME, DOMAIN_FREQUENCY):
        raise ContainerError(f"unknown domain flag {domain}")
    return domain


def _read_payload(fh: BinaryIO, count: int) -> np.ndarray:
    """count complex values as a writable native complex128 array, read
    straight into it (readinto), with no intermediate bytes.  The declared
    size is checked against what the file has left before any read or
    allocation, so the input must be a regular file: a pipe or terminal,
    whose size cannot be known, is refused by name."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise ContainerError(f"{fh.name}: not a regular file; the reader checks a record's "
                             f"declared size against the file's before reading it")
    left = st.st_size - fh.tell()
    if 16 * count > left:
        raise ContainerError(f"truncated container: header declares {count} values "
                             f"({16 * count} bytes), file has {left} bytes left")
    data = np.empty(count, dtype=np.complex128)
    if fh.readinto(data) != 16 * count:
        raise ContainerError(f"truncated container: expected {16 * count} bytes of payload")
    if sys.byteorder == "big":
        data.byteswap(inplace=True)  # the payload is little-endian
    return data


def write_sfr1(path, signal: Signal, append: bool = False) -> None:
    if isinstance(signal, TimeSamples):
        domain, values = DOMAIN_TIME, signal.values
    elif isinstance(signal, SpectralSignal):
        domain, values = DOMAIN_FREQUENCY, signal.coeffs
    else:
        raise TypeError(f"expected TimeSamples or SpectralSignal, got {type(signal)!r}")
    mode = "ab" if append else "wb"
    with open(path, mode) as fh:
        fh.write(MAGIC1)
        fh.write(struct.pack("<I", signal.grid.size))
        fh.write(struct.pack("B", domain))
        fh.write(memoryview(np.ascontiguousarray(values, "<c16")))


def _read_sfr1_record(fh: BinaryIO) -> Signal | None:
    magic = fh.read(4)
    if not magic:
        return None
    if magic != MAGIC1:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC1!r}")
    (n,) = struct.unpack("<I", _read_exact(fh, 4, "size"))
    domain = _read_domain(fh)
    data = _read_payload(fh, n)
    return _adopt(TimeSamples if domain == DOMAIN_TIME else SpectralSignal, FrequencyGrid(int(n)), data)


def read_sfr1(path) -> Signal:
    """Read the first (usually only) record of an SFR1 file."""
    with open(path, "rb") as fh:
        record = _read_sfr1_record(fh)
    if record is None:
        raise ContainerError("empty container")
    return record


def read_sfr1_all(path) -> list[Signal]:
    records = []
    with open(path, "rb") as fh:
        while True:
            record = _read_sfr1_record(fh)
            if record is None:
                return records
            records.append(record)


def write_sfr2(path, values: np.ndarray, domain: int) -> None:
    arr = np.asarray(values, dtype=np.complex128)
    if not 1 <= arr.ndim <= MAX_DIM:
        raise ValueError(f"expected an array of dimension 1..{MAX_DIM}, got {arr.ndim}")
    if max(arr.shape) >= 1 << 32:
        raise ValueError(f"axis sizes {arr.shape} do not fit the u32 header")
    if domain not in (DOMAIN_TIME, DOMAIN_FREQUENCY):
        raise ValueError(f"unknown domain flag {domain}")
    header = MAGIC2 + struct.pack(f"<{arr.ndim + 1}IB", arr.ndim, *arr.shape, domain)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(np.ascontiguousarray(arr, "<c16")))


def read_sfr2(path) -> tuple[np.ndarray, int]:
    """Read an SFR2 record; returns (complex array, domain flag)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC2:
            raise ContainerError(f"bad magic {magic!r}, expected {MAGIC2!r}")
        (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "dimension"))
        if not 1 <= ndim <= MAX_DIM:
            raise ContainerError(f"implausible dimension {ndim}")
        shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "shape"))
        domain = _read_domain(fh)
        count = math.prod(shape)
        data = _read_payload(fh, count)
    return data.reshape(shape), domain


def write_csv_signal(path, index: np.ndarray, values: np.ndarray, index_name: str = "index") -> None:
    """Write an (index, re, im) table; floats use exact shortest repr."""
    values = np.asarray(values, dtype=np.complex128)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([index_name, "re", "im"])
        for idx, v in zip(index, values):
            writer.writerow([repr(float(idx)) if isinstance(idx, float) else idx,
                             repr(float(v.real)), repr(float(v.imag))])


def read_csv_signal(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an (index, re, im) table back; returns (index, complex values)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3:
            raise ContainerError("CSV must have an index,re,im header")
        index, values = [], []
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ContainerError(f"short CSV row: {row!r}")
            index.append(float(row[0]))
            values.append(complex(float(row[1]), float(row[2])))
    return np.asarray(index), np.asarray(values, dtype=np.complex128)
