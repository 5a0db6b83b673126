"""Periodized signal model on a uniform grid.

Signals live on the unit circle: a grid of even size ``n`` carries time
samples at t = 0, 1/n, ..., (n-1)/n and spectral coefficients at the
integer frequencies j = -n/2, ..., n/2 - 1 (ascending storage order).
The forward transform carries the 1/n factor,

    coeff(j) = (1/n) * sum_m values[m] * exp(-2*pi*i*j*m/n),

so the coefficient array of a trigonometric polynomial holds its
coefficients verbatim, and the spectral dot product equals the L2([0,1))
inner product of the underlying polynomials.  The inverse transform
carries no factor.  Consequences used throughout the package:

    sum_m x[m] * conj(y[m])  =  n * sum_j xhat[j] * conj(yhat[j])

and the L2 norm of a signal is sqrt((1/n) sum |values|^2) in time,
sqrt(sum |coeff|^2) in frequency.

Frequency content that an operation would move outside the grid is
dropped.  The public constructors copy their input; the transforms run
in place on the one array each makes and hand it over read-only, with
no second copy (_adopt), so a result shares no memory with its input.
Norms have the same bits under any thread count (_norm): numpy's own
pairwise sum of the squared parts, walked leaf by leaf on numpy's tree
(_sum_squares), so a norm of x - ref (_rel_norm, a round trip's relative
error) forms neither the difference nor the squares on the whole grid.
That walk relies on numpy's split of a contiguous float64 sum, which
tests/test_norm_walk.py pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrequencyGrid",
    "TimeSamples",
    "SpectralSignal",
    "to_spectrum",
    "from_spectrum",
    "poisson_residual",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of even size ``n``, frequencies -n/2 .. n/2-1."""

    size: int

    def __post_init__(self):
        n = self.size
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise TypeError(f"grid size must be an integer, got {n!r}")
        if n < 4 or n % 2:
            raise ValueError(f"grid size must be even and >= 4, got {n}")

    @property
    def half(self) -> int:
        return self.size // 2

    def frequencies(self) -> np.ndarray:
        """Integer frequencies in storage order (ascending)."""
        return np.arange(-self.half, self.half)

    def times(self) -> np.ndarray:
        """Sample positions t = m/n on [0, 1)."""
        return np.arange(self.size) / self.size

    def index_of(self, j: int) -> int:
        """Storage index of frequency j."""
        if not -self.half <= j < self.half:
            raise ValueError(f"frequency {j} outside grid of size {self.size}")
        return int(j) + self.half


# parts a leaf of _norm's walk sums with one np.sum (a multiple of 8)
_LEAF = 4096


def _sum_squares(parts: np.ndarray, ref: np.ndarray | None) -> float:
    """np.sum of the squared parts (of parts - ref where ref is given),
    bit for bit, with no full-length temporary: numpy sums a contiguous
    float64 array pairwise, splitting n parts at n // 2 rounded down to a
    multiple of 8 down to blocks of 128 or fewer (Higham, SIAM J. Sci.
    Comput. 14, 1993), so the same tree is walked here down to leaves of
    at most _LEAF parts, and each leaf's squares are summed on the leaf's
    own subtree by np.add.reduce, the reduction np.sum runs, without
    np.sum's dispatch.  tests/test_norm_walk.py pins that split."""
    n = parts.size
    if n > _LEAF:
        h = n // 2 - n // 2 % 8
        head, tail = (None, None) if ref is None else (ref[:h], ref[h:])
        return _sum_squares(parts[:h], head) + _sum_squares(parts[h:], tail)
    if ref is None:
        return float(np.add.reduce(parts * parts))
    sq = parts - ref
    sq *= sq
    return float(np.add.reduce(sq))


def _norm(x: np.ndarray, ref: np.ndarray | None = None) -> float:
    """The l2 norm of a contiguous complex array, of x - ref where ref (of
    x's shape) is given, by numpy's own pairwise sum of its squared parts,
    not BLAS: the same bits under any thread count.  The sum is walked
    leaf by leaf on numpy's tree (_sum_squares), so neither the
    difference nor the squares are formed on the whole grid.  Where that
    sum overflows, falls below 2^-1000 or vanishes though a part does not,
    the parts of x - ref are formed and first scaled by the power of two
    that brings the largest into [0.5, 1), exactly: the norm of an O(1)
    array scaled by 2^k is 2^k times its own, bit for bit, for |k| <= 600."""
    parts = x.reshape(-1).view(np.float64)
    refs = None if ref is None else ref.reshape(-1).view(np.float64)
    with np.errstate(over="ignore"):
        total = _sum_squares(parts, refs)
        if 2.0 ** -1000 <= total < math.inf:
            return math.sqrt(total)
        if refs is not None:
            parts = parts - refs
        big = float(np.max(np.abs(parts), initial=0.0))
        if not 0.0 < big < math.inf:  # all zero, or a part is inf or NaN
            return math.sqrt(total)
        _, e = math.frexp(big)
        # inf where the norm itself is past the float range
        return float(np.ldexp(math.sqrt(_sum_squares(np.ldexp(parts, -e), None)), e))


def _rel_norm(x: np.ndarray, ref: np.ndarray) -> float:
    """||x - ref|| / ||ref|| by _norm (||x - ref|| where ref is zero), with
    no residual grid.  Where a norm passes the float range, as an input's
    does near it, x - ref is formed and both norms are taken on it and
    ref scaled by the one power of two that brings the largest part of
    either into [0.5, 1), exactly, so the ratio stays finite.  A
    power-of-two scaling leaves an in-range ratio's bits as they are: an
    input scaled by 2^k gives the same ratio while its parts stay normal."""
    num, den = _norm(x, ref), _norm(ref)
    if max(num, den) < math.inf or not den:
        return num / (den or 1.0)
    parts = [a.view(np.float64) for a in (x - ref, ref)]
    # e = 0, no scaling, where a part is inf or NaN
    _, e = math.frexp(max(float(np.max(np.abs(p), initial=0.0)) for p in parts))
    num, den = (_norm(np.ldexp(p, -e)) for p in parts)
    return num / (den or 1.0)


def _as_complex(values, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSamples:
    """Complex samples at t = m/n.  Values are frozen after construction."""

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.grid.size))

    def dot(self, other: "TimeSamples") -> complex:
        """Plain sample dot product sum x * conj(y)."""
        return complex(np.vdot(other.values, self.values))

    def norm(self) -> float:
        """L2([0,1)) norm: sqrt of the mean squared modulus."""
        return float(_norm(self.values) / np.sqrt(self.grid.size))


@dataclass(frozen=True)
class SpectralSignal:
    """Spectral coefficients on a grid, stored in ascending frequency order."""

    grid: FrequencyGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex(self.coeffs, self.grid.size))

    def __getitem__(self, j: int) -> complex:
        return complex(self.coeffs[self.grid.index_of(j)])

    def dot(self, other: "SpectralSignal") -> complex:
        """L2([0,1)) inner product of the underlying polynomials."""
        return complex(np.vdot(other.coeffs, self.coeffs))

    def norm(self) -> float:
        return _norm(self.coeffs)


_PAYLOAD = {TimeSamples: "values", SpectralSignal: "coeffs"}


def _adopt(cls, grid: FrequencyGrid, arr: np.ndarray):
    """cls(grid, arr), a TimeSamples or SpectralSignal, without the copy
    the public constructor makes: arr, a complex128 array of shape
    (grid.size,) that the library has just made and no one else holds, is
    frozen and kept as it is."""
    if arr.dtype != np.complex128 or arr.shape != (grid.size,):
        raise ValueError(f"expected complex128 of shape ({grid.size},), got {arr.dtype} {arr.shape}")
    arr.flags.writeable = False
    signal = object.__new__(cls)
    object.__setattr__(signal, "grid", grid)
    object.__setattr__(signal, _PAYLOAD[cls], arr)
    return signal


def to_spectrum(x: TimeSamples) -> SpectralSignal:
    """Forward transform; carries the 1/n factor."""
    coeffs = np.fft.fftshift(np.fft.fft(x.values))
    coeffs /= x.grid.size  # in place on the shift's own copy
    return _adopt(SpectralSignal, x.grid, coeffs)


def from_spectrum(s: SpectralSignal) -> TimeSamples:
    """Inverse transform; carries no factor."""
    values = np.fft.ifftshift(s.coeffs)  # a copy, transformed in place
    np.fft.ifft(values, out=values)
    values *= s.grid.size
    return _adopt(TimeSamples, s.grid, values)


def poisson_residual(time_profile, freq_profile, gamma: float, x, n_terms: int = 12):
    """Absolute defect of the periodization identity

        gamma * sum_m phi(x + gamma*m)  =  sum_m phihat(m/gamma) e^{2 pi i m x / gamma}

    with both sides truncated to |m| <= n_terms.  ``x`` may be a scalar or an
    array; the residual has the same shape.  Meaningful only for profiles
    decaying fast enough that the truncation is below the target tolerance.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if time_profile is None:
        raise ValueError("window has no closed-form time evaluator")
    xs = np.asarray(x, dtype=float)
    ms = np.arange(-n_terms, n_terms + 1)
    lhs = gamma * np.sum(time_profile(xs[..., None] + gamma * ms), axis=-1)
    rhs = np.sum(
        freq_profile(ms / gamma) * np.exp(2j * np.pi * ms * xs[..., None] / gamma),
        axis=-1,
    )
    return np.abs(lhs - rhs)
