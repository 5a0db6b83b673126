"""Frame analysis/synthesis, shift-sum operator, bounds, conjugate dual."""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from stockframe import frame1d
from stockframe.frame1d import (
    EIGEN_SIZE_CAP,
    ConjugateFilter,
    FrameBounds,
    FrameCoefficients,
    FrameGapError,
    analyze,
    conjugate_filter,
    frame_bounds_eigen,
    frame_element,
    frame_operator_apply,
    make_frame_spec,
    reconstruct,
    synthesize,
    walnut_apply,
    walnut_bounds,
)
from stockframe.spectral import FrequencyGrid, SpectralSignal, TimeSamples, to_spectrum
from stockframe.window import COEFF_CAP, Window, gaussian_window, truncated_gaussian
from roundtrip import check_split, fold_order_reconstruct, per_call_reconstruct
from tailbound import (analysis_bound, check_trim, dense_records, kernel_roundoff, reconstruct_bound, shift_pairs,
                       synthesis_bound, walnut_bound, walnut_kernel)


def gauss_spec(mu=0.5, q=4, alpha=1, n=128, **kw):
    return make_frame_spec(gaussian_window(), mu, q, alpha, n, **kw)


def painless_spec(n=128, q=4):
    return make_frame_spec(truncated_gaussian(0.1), 0.5, q, 1, n)


def random_spectrum(rng, n):
    grid = FrequencyGrid(n)
    return SpectralSignal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))


WINDOWS = {"gaussian": gaussian_window, "tgauss": lambda: truncated_gaussian(0.1)}


def step_window():
    # +1 within 1.5 of the lattice point, -1 out to 4.5: at alpha = 0 and
    # q = 3 every product at shift 3 is negative
    def profile(x):
        mag = np.abs(x)
        return np.where(mag <= 1.5, 1.0, np.where(mag <= 4.5, -1.0, 0.0))
    return Window("step", profile, None, 4.5)


def over_term_chunks(cases):
    """Every case at the default chunk size and at chunks of 64 and 1 bins
    or terms, which cut an n = 48 spec into 2 to 97 chunks; the default
    keeps the case's plain test id."""
    return [pytest.param(*case, chunk, id="-".join(map(str, case))
                         + ("" if chunk == frame1d._TERM_CHUNK else f"-chunk{chunk}"))
            for case in cases for chunk in (frame1d._TERM_CHUNK, 64, 1)]


# Dense per-band reference: every band folds, transforms and spreads over
# the whole grid, one band at a time.

def dense_analyze(spec, fhat, bands):
    j = spec.grid.frequencies()
    out = {}
    for p in spec.p_range:
        m, w = spec.k_count(p), spec.width(p)
        folded = np.zeros(m, dtype=np.complex128)
        np.add.at(folded, j % m, fhat * np.conj(bands[p]))
        out[p] = m * np.fft.ifft(folded) / np.sqrt(w)
    return out


def dense_synthesize(spec, data, bands):
    j = spec.grid.frequencies()
    acc = np.zeros(spec.grid.size, dtype=np.complex128)
    for p, cvec in data.items():
        m, w = spec.k_count(p), spec.width(p)
        acc += bands[p] * np.fft.fft(cvec)[j % m] / np.sqrt(w)
    return acc


def dense_reconstruct(spec, fhat, duals, bands):
    # analysis against duals then synthesis with bands, FFT pair cancelled:
    # q * band * (f^ dual folded mod m) on each band's core extent.  A bin
    # alone in its residue class there adds q band dual to the multiplier
    # D, band by band in p order; the output is D f^ plus, band by band in
    # p order, the folds of the classes of two or more bins
    n, j = spec.grid.size, spec.grid.frequencies()
    core, classes = spec.core, {}
    diagonal = np.zeros(n)
    for b, p in enumerate(core.ps):
        m = spec.k_count(p)
        extent = (np.arange(n) >= core.lo[b]) & (np.arange(n) < core.hi[b])
        shared = extent & (np.bincount(j[extent] % m, minlength=m)[j % m] > 1)
        alone = extent & ~shared
        diagonal[alone] += spec.q * bands[p][alone] * duals[p][alone]
        classes[p] = shared
    acc = diagonal * fhat
    for p, shared in classes.items():
        m = spec.k_count(p)
        folded = np.zeros(m, dtype=np.complex128)
        np.add.at(folded, j[shared] % m, fhat[shared] * duals[p][shared])
        acc[shared] += spec.q * bands[p][shared] * folded[j[shared] % m]
    return acc


def dense_operator(spec):
    # S applied to every spectral basis vector at once: each column is one
    # band-by-band analysis followed by synthesis
    n = spec.grid.size
    j = spec.grid.frequencies()
    mat = np.zeros((n, n), dtype=np.complex128)
    for p in spec.p_range:
        band, m, w = spec.stack.band(p), spec.k_count(p), spec.width(p)
        folded = np.zeros((m, n), dtype=np.complex128)
        np.add.at(folded, j % m, np.diag(np.conj(band)))
        coeffs = m * np.fft.ifft(folded, axis=0) / np.sqrt(w)
        mat += band[:, None] * np.fft.fft(coeffs, axis=0)[j % m] / np.sqrt(w)
    return mat


# Dense per-shift Walnut references: every (band, shift) pair shifts the
# whole grid, one pair at a time.  The Walnut sum and the eigen kernel read
# each band from its core records; h_tail reads the full ones.

def core_bands(spec):
    """Each band on the grid from its core records, by p."""
    return dict(zip(spec.core.ps, dense_records(spec.core, spec.grid.size)))


def _reach(spec, p, band, k_max):
    nz = np.flatnonzero(band)
    if nz.size == 0:
        return -1
    limit = int(nz[-1] - nz[0]) // spec.k_count(p)
    return limit if k_max is None else min(limit, k_max)


def dense_walnut_apply(spec, fhat, k_max=None):
    n = spec.grid.size
    acc = np.zeros(n, dtype=np.complex128)
    for p, band in core_bands(spec).items():
        base = fhat * np.conj(band)
        limit = _reach(spec, p, band, k_max)
        for m in range(-limit, limit + 1):
            s = m * spec.k_count(p)
            if abs(s) >= n:
                continue
            shifted = np.zeros_like(base)
            if s >= 0:
                shifted[s:] = base[:n - s]
            else:
                shifted[:s] = base[-s:]
            acc += shifted * band
    return spec.q * acc


def dense_kernel(spec):
    # S[u, v] = q sum_p Phi_p(u) Phi_p(v) [u = v mod q w_p], one (band,
    # shift) pair at a time over the whole grid
    n = spec.grid.size
    mat = np.zeros((n, n))
    for p, band in core_bands(spec).items():
        limit = _reach(spec, p, band, None)
        for m in range(-limit, limit + 1):
            s = m * spec.k_count(p)
            u = np.arange(max(s, 0), min(n, n + s))
            mat[u, u - s] += band[u] * band[u - s]
    return spec.q * mat


def dense_h_tail(spec, k_max):
    # each band's sups add in m order into its tail, the tails in p order
    h_tail = 0.0
    for p in spec.p_range:
        band = spec.stack.band(p)
        tail = 0.0
        for m in range(1, _reach(spec, p, band, k_max) + 1):
            s = m * spec.k_count(p)
            tail += float(np.max(band[s:] * band[:-s]))
        h_tail += 2.0 * tail
    return h_tail


# ---------------------------------------------------------------- elements


def test_frame_element_matches_definition():
    spec = gauss_spec(n=64)
    j = spec.grid.frequencies()
    for p in (-3, 0, 2):
        w = spec.width(p)
        m = spec.k_count(p)
        band = spec.stack.band(p)
        for k in (0, 1, m - 1):
            want = np.exp(-2j * np.pi * j * k / m) * band / np.sqrt(w)
            got = frame_element(spec, p, k).coeffs
            assert np.max(np.abs(got - want)) == 0.0


def test_frame_element_range_checks():
    spec = gauss_spec(n=64)
    with pytest.raises(ValueError):
        frame_element(spec, 99, 0)
    with pytest.raises(ValueError):
        frame_element(spec, 1, spec.k_count(1))
    with pytest.raises(ValueError):
        frame_element(spec, 1, -1)


def test_frame_element_refuses_non_integer_slots():
    spec = gauss_spec(n=64)
    with pytest.raises(ValueError, match="not an integer"):
        frame_element(spec, 1, 0.5)
    # an integral value names the same element
    assert np.array_equal(frame_element(spec, 1, 2.0).coeffs, frame_element(spec, 1, 2).coeffs)


def test_alpha_zero_elements_are_gabor_atoms():
    # k-th slot at band p is the modulation p*mu, translation k/q atom
    spec = gauss_spec(mu=0.5, q=4, alpha=0, n=64)
    win = gaussian_window()
    j = spec.grid.frequencies()
    for p in (-5, 0, 3):
        for k in (0, 2):
            want = np.exp(-2j * np.pi * j * k / 4) * win.freq_profile(j - 0.5 * p)
            got = frame_element(spec, p, k).coeffs
            assert np.max(np.abs(got - want)) == 0.0


# ---------------------------------------------------------------- analysis


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("alpha", [0, 0.5, 1])
def test_analyze_matches_literal_inner_products(alpha, window):
    rng = np.random.default_rng(2)
    spec = make_frame_spec(WINDOWS[window](), 0.5, 2, alpha, 32)
    fs = random_spectrum(rng, 32)
    coeffs = analyze(spec, fs)
    for p in spec.p_range:
        for k in range(spec.k_count(p)):
            e = frame_element(spec, p, k)
            want = np.sum(fs.coeffs * np.conj(e.coeffs))
            assert abs(coeffs[(p, k)] - want) < 1e-12


def test_analyze_accepts_time_samples():
    rng = np.random.default_rng(3)
    grid = FrequencyGrid(64)
    x = TimeSamples(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    spec = gauss_spec(n=64)
    a = analyze(spec, x)
    b = analyze(spec, to_spectrum(x))
    for p in spec.p_range:
        assert np.array_equal(a.band(p), b.band(p))


def test_analyze_rejects_grid_mismatch_and_type():
    spec = gauss_spec(n=64)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        analyze(spec, random_spectrum(rng, 32))
    with pytest.raises(TypeError):
        analyze(spec, np.zeros(64))


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("alpha", [0, 0.5, 1])
def test_synthesize_matches_literal_element_sum(alpha, window):
    rng = np.random.default_rng(5)
    spec = make_frame_spec(WINDOWS[window](), 0.5, 2, alpha, 32)
    coeffs = analyze(spec, random_spectrum(rng, 32))
    want = np.zeros(32, dtype=complex)
    for p in spec.p_range:
        for k in range(spec.k_count(p)):
            want += coeffs[(p, k)] * frame_element(spec, p, k).coeffs
    got = synthesize(spec, coeffs).coeffs
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("alpha, window, chunk",
                         over_term_chunks(product([0, 0.3, 0.5, 1], sorted(WINDOWS))))
def test_batched_engine_is_bit_identical_to_dense_reference(alpha, window, chunk, monkeypatch):
    # the chunks are cached on the spec's records: set their size first
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    rng = np.random.default_rng(15)
    spec = make_frame_spec(WINDOWS[window](), 0.5, 3, alpha, 48)
    stack = spec.stack.bands
    fs = random_spectrum(rng, 48)
    fhat = fs.coeffs

    want = dense_analyze(spec, fhat, stack)
    coeffs = analyze(spec, fs)
    assert list(coeffs.data) == list(want)
    assert all(np.array_equal(coeffs.band(p), want[p]) for p in want)

    assert np.array_equal(synthesize(spec, coeffs).coeffs, dense_synthesize(spec, want, stack))
    assert np.array_equal(frame_operator_apply(spec, fs).coeffs,
                          dense_synthesize(spec, want, stack))
    # bins add their bands in p order, whatever the order of the dict
    backwards = dict(reversed(list(want.items())))
    assert same_bits(synthesize(spec, FrameCoefficients(spec, backwards)).coeffs,
                     synthesize(spec, coeffs).coeffs)

    h0 = np.zeros(48)
    for arr in stack.values():
        h0 += arr * arr
    dual = {p: spec.nu * arr / h0 for p, arr in stack.items()}
    conj = conjugate_filter(spec)
    assert np.array_equal(spec.h0, h0)
    residual = np.zeros(48)
    for p, om in dual.items():
        residual += om * stack[p]
    assert conj.partition_residual() == float(np.max(np.abs(residual - spec.nu)))
    rec_want = dense_reconstruct(spec, fhat, dual, stack)
    rec, rel = reconstruct(spec, fs)
    assert np.array_equal(rec.coeffs, rec_want)
    assert rel == norm(rec_want - fhat) / norm(fhat)
    # the coefficient round trip it short-cuts agrees to round-off
    composed = dense_synthesize(spec, dense_analyze(spec, fhat, dual), stack)
    assert np.max(np.abs(rec.coeffs - composed)) <= 1e-13 * np.max(np.abs(composed))

    mat = np.empty((48, 48), dtype=np.complex128)
    for col in range(48):
        e = np.zeros(48, dtype=np.complex128)
        e[col] = 1.0
        mat[:, col] = dense_synthesize(spec, dense_analyze(spec, e, stack), stack)
    eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    bounds = frame_bounds_eigen(spec)
    # the operator is assembled from the Walnut kernel, not this FFT pair
    assert abs(bounds.lower - eigs[0]) <= 1e-13 * abs(eigs[0])
    assert abs(bounds.upper - eigs[-1]) <= 1e-13 * abs(eigs[-1])


# ---------------------------------------------------------------- shift-sum operator


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("alpha", [0, 0.3, 0.5, 1])
def test_kernel_eigenbounds_match_column_applied_operator(alpha, window, q):
    spec = make_frame_spec(WINDOWS[window](), 0.5, q, alpha, 48)
    eigs = np.linalg.eigvalsh(dense_operator(spec))
    bounds = frame_bounds_eigen(spec)
    assert abs(bounds.lower - eigs[0]) <= 1e-13 * abs(eigs[0])
    assert abs(bounds.upper - eigs[-1]) <= 1e-13 * abs(eigs[-1])


@pytest.mark.parametrize("alpha, window, q, chunk",
                         over_term_chunks(product([0, 0.3, 0.5, 1], sorted(WINDOWS) + ["step"], [2, 3])))
def test_walnut_paths_are_bit_identical_to_per_shift_loops(alpha, window, q, chunk, monkeypatch):
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    rng = np.random.default_rng(16)
    spec = make_frame_spec({**WINDOWS, "step": step_window}[window](), 0.5, q, alpha, 48)
    fs = random_spectrum(rng, 48)
    for k_max in (None, 0, 1):
        want = dense_walnut_apply(spec, fs.coeffs, k_max)
        assert np.array_equal(walnut_apply(spec, fs, k_max=k_max).coeffs, want)
    for k_max in (None, 1, 2, 1000):
        rep = walnut_bounds(spec, k_max)
        assert rep.h_tail == dense_h_tail(spec, rep.k_max)


@pytest.mark.parametrize("alpha, window, chunk",
                         over_term_chunks(product([0, 0.5, 1], ["gaussian", "step"])))
def test_eigen_kernel_is_bit_identical_to_per_shift_loops(alpha, window, chunk, monkeypatch):
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    spec = make_frame_spec({**WINDOWS, "step": step_window}[window](), 0.5, 2, alpha, 48)
    mat = dense_kernel(spec)
    eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    assert frame_bounds_eigen(spec) == FrameBounds(float(eigs[0]), float(eigs[-1]), "eigen")


@pytest.mark.parametrize("alpha", [0, 0.5, 1])
def test_walnut_equals_frame_operator(alpha):
    # both read the core records: they differ by round-off alone
    rng = np.random.default_rng(6)
    spec = make_frame_spec(gaussian_window(), 0.5, 4, alpha, 128)
    for _ in range(5):
        fs = random_spectrum(rng, 128)
        via_frames = frame_operator_apply(spec, fs).coeffs
        via_shifts = walnut_apply(spec, fs).coeffs
        scale = float(np.max(np.abs(via_frames)))
        assert np.max(np.abs(via_frames - via_shifts)) < 1e-14 * scale


def test_walnut_truncation_and_dropped_mass():
    rng = np.random.default_rng(8)
    spec = gauss_spec(n=128, q=4)
    fs = random_spectrum(rng, 128)
    exact = walnut_apply(spec, fs).coeffs
    truncated = walnut_apply(spec, fs, k_max=0).coeffs
    # k_max = 0 keeps only the diagonal q H0 term
    h0 = spec.stack.sum_of_squares()
    assert np.max(np.abs(truncated - 4 * h0 * fs.coeffs)) < 1e-12
    assert np.max(np.abs(exact - truncated)) > 0


def test_painless_operator_is_a_multiplier():
    rng = np.random.default_rng(9)
    spec = painless_spec(n=128, q=4)
    fs = random_spectrum(rng, 128)
    got = walnut_apply(spec, fs).coeffs
    want = 4 * spec.stack.sum_of_squares() * fs.coeffs
    assert np.max(np.abs(got - want)) < 1e-12 * float(np.max(np.abs(want)))


# ---------------------------------------------------------------- bounds


def test_walnut_bounds_sandwich_eigenvalues():
    spec = gauss_spec(n=128, q=8)
    rep = walnut_bounds(spec)
    eig = frame_bounds_eigen(spec)
    assert rep.lower > 0
    assert rep.lower <= eig.lower + 1e-9
    assert eig.upper <= rep.upper + 1e-9
    assert eig.lower <= eig.upper


def test_walnut_bounds_painless_are_tight():
    spec = painless_spec(n=128, q=4)
    rep = walnut_bounds(spec)
    assert rep.h_tail == 0.0
    h0 = spec.stack.sum_of_squares()
    assert rep.lower == pytest.approx(4 * float(h0.min()), rel=1e-12)
    assert rep.upper == pytest.approx(4 * float(h0.max()), rel=1e-12)


@pytest.mark.parametrize("k_max", [-1, -3, 2.5, 2.0, np.float64(3.0), "2", np.int64(-1)])
def test_walnut_refuses_a_k_max_that_is_no_integer_from_zero(k_max):
    # a negative k_max kept no shift, not even the diagonal, and a float
    # one failed inside numpy: both are refused by name
    spec = make_frame_spec(gaussian_window(), 0.5, 2, 1, 64)
    fs = random_spectrum(np.random.default_rng(31), 64)
    for call in (lambda: walnut_apply(spec, fs, k_max=k_max), lambda: walnut_bounds(spec, k_max)):
        with pytest.raises(ValueError, match="k_max must be an integer >= 0") as err:
            call()
        assert repr(k_max) in str(err.value)
    for k_max in (0, np.int64(0), np.uint8(1), 1 << 70):
        assert walnut_bounds(spec, k_max).k_max == k_max
        walnut_apply(spec, fs, k_max=k_max)


def test_h_tail_grows_with_k_max():
    spec = gauss_spec(n=128, q=4)
    tails = [walnut_bounds(spec, k_max=k).h_tail for k in (1, 2, 4)]
    tails.append(walnut_bounds(spec).h_tail)
    assert all(a <= b + 1e-18 for a, b in zip(tails, tails[1:]))
    assert tails[0] > 0


def test_frame_inequality_on_coefficient_energy():
    rng = np.random.default_rng(10)
    spec = gauss_spec(n=128, q=8)
    rep = walnut_bounds(spec)
    for _ in range(5):
        fs = random_spectrum(rng, 128)
        energy = analyze(spec, fs).energy()
        norm2 = float(np.sum(np.abs(fs.coeffs) ** 2))
        assert rep.lower * norm2 - 1e-9 <= energy <= rep.upper * norm2 + 1e-9


def test_eigen_bounds_refuse_large_grids():
    spec = gauss_spec(n=EIGEN_SIZE_CAP * 2)
    with pytest.raises(ValueError):
        frame_bounds_eigen(spec)


def test_make_frame_spec_validates_q():
    with pytest.raises(ValueError):
        make_frame_spec(gaussian_window(), 0.5, 0, 1, 64)
    with pytest.raises(ValueError):
        make_frame_spec(gaussian_window(), 0.5, 2.5, 1, 64)
    with pytest.raises(ValueError, match="overflow int64"):
        make_frame_spec(gaussian_window(), 0.5, 1 << 62, 1, 64)


def test_frame_spec_holds_only_q_and_its_stack():
    # the grid and the partition are the stack's own, so a spec cannot
    # disagree with its stack; the window, mu and alpha are read there too
    spec = gauss_spec(mu=0.5, q=3, alpha=0.5, n=64)
    assert [f.name for f in dataclasses.fields(spec)] == ["q", "stack"]
    assert spec.grid is spec.stack.grid and spec.partition is spec.stack.partition
    assert (spec.stack.mu, spec.stack.partition.alpha, spec.stack.window.kind) == (0.5, 0.5, "gaussian")


# ---------------------------------------------------------------- conjugate dual


def test_conjugate_partition_of_unity():
    spec = gauss_spec(n=128, q=8)
    conj = conjugate_filter(spec)
    assert conj.partition_residual() < 1e-14


def test_conjugate_detects_spectral_gap():
    # support 1.01 with lattice spacing 8 leaves H0 = 0 between bands; the
    # filter is the spec's own, so building one runs the gap check: no
    # filter, and no round trip, for a spec whose H0 reaches the floor
    spec = make_frame_spec(truncated_gaussian(0.01), 8.0, 4, 1, 64)
    worst = int(np.argmin(spec.h0)) - spec.grid.half
    fs = random_spectrum(np.random.default_rng(19), 64)
    for attempt in (lambda: conjugate_filter(spec), lambda: ConjugateFilter(spec),
                    lambda: reconstruct(spec, fs)):
        with pytest.raises(FrameGapError) as err:
            attempt()
        assert f"(worst at frequency {worst})" in str(err.value)


@pytest.mark.parametrize("n", [48, 64])
@pytest.mark.parametrize("mu", [0.5, 3.0])
@pytest.mark.parametrize("alpha", [0, 0.3, 0.5, 1])
@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_h0_is_the_stack_sum_of_squares(window, alpha, mu, n):
    # the H0 both frames share has one slot in 1D: one bincount of the
    # bands' squares in p order, as the stack's own sum adds them
    spec = make_frame_spec(WINDOWS[window](), mu, 2, alpha, n)
    assert same_bits(spec.h0, spec.stack.sum_of_squares())


def test_reconstruct_builds_h0_once_per_spec(monkeypatch):
    # both frames build H0 in one body, which neither spec overrides
    assert "sum_of_squares" not in vars(frame1d.FrameSpec)
    original, check = frame1d._BoxFrame.sum_of_squares, frame1d._check_gap
    calls, checks = [], []

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(frame1d._BoxFrame, "sum_of_squares", counting)
    monkeypatch.setattr(frame1d, "_check_gap", lambda *args: checks.append(args) or check(*args))
    rng = np.random.default_rng(14)
    spec = gauss_spec(n=128, q=8)
    fs = random_spectrum(rng, 128)
    runs = [reconstruct(spec, fs), reconstruct(spec, fs)]
    assert len(calls) == 1
    assert not spec.h0.flags.writeable
    # the gap check still runs on every call
    assert len(checks) == 2
    # the round trip in its documented order on a freshly summed H0
    fhat = fs.coeffs
    rec_want = per_call_reconstruct(fhat, original(spec), spec._fold_chunks(), spec.nu, spec.q)
    rel_want = norm(rec_want - fhat) / norm(fhat)
    for rec, rel in runs:
        assert np.array_equal(rec.coeffs, rec_want)
        assert rel == rel_want


def norm(x):
    # the l2 norm as the round trips take it: numpy's pairwise sum of the
    # squared parts, not BLAS, so the same under any thread count
    parts = np.ravel(x).view(np.float64)
    return math.sqrt(float(np.sum(parts * parts)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("alpha, window, q, chunk",
                         over_term_chunks(product([0, 0.3, 0.5, 1], sorted(WINDOWS), [1, 2, 3, 8])))
def test_held_dual_is_bit_identical_to_the_per_call_dual(alpha, window, q, chunk, monkeypatch):
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    original, calls = frame1d._split, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frame1d, "_split", counting)
    rng = np.random.default_rng(17)
    spec = make_frame_spec(WINDOWS[window](), 0.5, q, alpha, 48)
    fs = random_spectrum(rng, 48)
    fhat = fs.coeffs
    want = per_call_reconstruct(fhat, spec.h0, spec._fold_chunks(), spec.nu, spec.q)
    rel_want = norm(want - fhat) / norm(fhat)
    for _ in range(2):
        rec, rel = reconstruct(spec, fs)
        assert same_bits(rec.coeffs, want)
        assert rel == rel_want
    # built once per spec from chunks it does not keep, read-only, each
    # core (band, bin) in D or the alias part
    assert len(calls) == 1
    assert "chunks" not in vars(spec)
    check_split(spec.split, spec.chunks, spec.q)
    # the fold of every bin, the order before the split, to round-off
    old = fold_order_reconstruct(fhat, spec.h0, spec.chunks, spec.nu, spec.q)
    assert np.max(np.abs(rec.coeffs - old)) <= 1e-14 * np.max(np.abs(rec.coeffs))


@pytest.mark.parametrize("size, count", [(1, 0), (7, 0), (1, 5), (7, 40), (300, 4096)])
def test_fold_is_bit_identical_to_two_bincounts(size, count):
    rng = np.random.default_rng(18)
    x = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    x[::3] *= -0.0  # signed zeros add as they did
    fold = rng.integers(0, size, count)
    want = np.empty(size, dtype=np.complex128)
    want.real = np.bincount(fold, x.real, size)
    want.imag = np.bincount(fold, x.imag, size)
    assert same_bits(frame1d._fold(x, fold, size), want)


def test_reconstruct_painless_is_exact():
    rng = np.random.default_rng(11)
    spec = painless_spec(n=128, q=4)
    fs = random_spectrum(rng, 128)
    rec, rel = reconstruct(spec, fs)
    assert rel < 1e-12
    assert np.max(np.abs(rec.coeffs - fs.coeffs)) < 1e-12 * float(np.max(np.abs(fs.coeffs)))


def test_reconstruct_gaussian_within_aliasing_level():
    rng = np.random.default_rng(12)
    spec = gauss_spec(n=128, q=8)
    fs = random_spectrum(rng, 128)
    _, rel = reconstruct(spec, fs)
    assert rel < 1e-6


def test_rel_err_keeps_its_bits_at_any_scale():
    # the two norms share one power of two: at 2^1020 the input's norm
    # alone overflowed, and rel_err read 0.0
    rng = np.random.default_rng(23)
    spec = gauss_spec(q=2, alpha=0.5, n=256)
    fhat = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    runs = [reconstruct(spec, SpectralSignal(spec.grid, fhat * 2.0 ** k)) for k in (0, -565, 565, 1020)]
    rel = runs[0][1]
    assert 1e-6 < rel < 1e-2
    for k, (rec, rel_k) in zip((-565, 565, 1020), runs[1:]):
        assert same_bits(np.array(rel_k), np.array(rel)), k
        assert same_bits(rec.coeffs, runs[0][0].coeffs * 2.0 ** k), k


@pytest.mark.parametrize("alpha, q", product([0, 0.5, 1], [1, 8]))
def test_core_records_drop_only_terms_below_tau(alpha, q, monkeypatch):
    """f lives on the trimmed tails of one band and is zero elsewhere, its
    core included: there the core and full records give different bits,
    within the bounds of tailbound.py, built from dropped terms of at most
    TAU * peak * |f(u)| (peak the largest record value) times their other
    factors, plus the rounding of either path."""
    with monkeypatch.context() as patch:
        patch.setattr(frame1d, "_core", lambda g: g)  # the engine on the full records
        full = gauss_spec(q=q, alpha=alpha, n=256)
        assert full.core is full.records
    spec = gauss_spec(q=q, alpha=alpha, n=256)
    g, c, n = spec.records, spec.core, 256
    bands, kept = dense_records(g, n), dense_records(c, n)
    top = frame1d.TAU * np.max(np.abs(g.values))
    check_trim(bands, kept, top)
    assert (c.hi - c.lo).sum() < (g.hi - g.lo).sum()

    b0 = g.ps.index(0)
    tail = (bands[b0] != 0) & (kept[b0] == 0)
    rng = np.random.default_rng(19)
    fhat = np.where(tail, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.0)
    fs = SpectralSignal(spec.grid, fhat)
    root = np.sqrt(g.w)

    got, coeffs = analyze(spec, fs), analyze(full, fs)
    bound = analysis_bound(bands, kept, root, fhat, top)
    assert not np.array_equal(got.band(0), coeffs.band(0))
    for b, p in enumerate(g.ps):
        assert np.all(np.abs(got.band(p) - coeffs.band(p)) <= bound[b])

    got, want = synthesize(spec, coeffs).coeffs, synthesize(full, coeffs).coeffs
    bound = synthesis_bound(bands, kept, root, [coeffs.band(p) for p in g.ps], top)
    assert np.all(np.abs(got - want) <= bound)

    slot = (np.arange(n) - n // 2) % g.m[:, None]
    (got, _), (want, _) = reconstruct(spec, fs), reconstruct(full, fs)
    assert not np.array_equal(got.coeffs, want.coeffs)
    bound = reconstruct_bound(bands, kept, slot, g.m, fhat, spec.h0, top)
    assert np.all(np.abs(got.coeffs - want.coeffs) <= bound)


@pytest.mark.parametrize("alpha, q", product([0, 0.5, 1], [2, 4]))
def test_walnut_core_moves_by_no_more_than_its_dropped_terms(alpha, q, monkeypatch):
    """The Walnut sum and the eigen kernel read the core records.  Against
    the full records the sum moves by at most the terms the core drops,
    each below TAU * peak^2 * |f(v)|, plus either path's rounding
    (tailbound.py); the eigenbounds by at most Weyl's ||K_full - K_core||_2
    plus the round-off of either eigensolve."""
    with monkeypatch.context() as patch:
        patch.setattr(frame1d, "_core", lambda g: g)  # the engine on the full records
        full = gauss_spec(q=q, alpha=alpha, n=48)
        assert full.core is full.records
    spec, n = gauss_spec(q=q, alpha=alpha, n=48), 48
    g = spec.records
    bands, kept = dense_records(g, n), dense_records(spec.core, n)
    top = frame1d.TAU * np.max(np.abs(g.values))
    check_trim(bands, kept, top)
    pairs = shift_pairs(g.m, n, 1)

    rng = np.random.default_rng(22)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b0 = g.ps.index(0)
    tail = (bands[b0] != 0) & (kept[b0] == 0)
    for fhat in (f, np.where(tail, f, 0.0)):
        fs = SpectralSignal(spec.grid, fhat)
        got, want = walnut_apply(spec, fs).coeffs, walnut_apply(full, fs).coeffs
        assert np.all(np.abs(got - want) <= q * walnut_bound(bands, kept, pairs, fhat, top, 1))
    # on the tails alone the dropped terms move some bins
    assert not np.array_equal(got, want)

    gap = np.linalg.norm(walnut_kernel(bands, pairs, q) - walnut_kernel(kept, pairs, q), 2)
    slack = gap + 2 * kernel_roundoff(bands, pairs, q, 1)
    got, want = frame_bounds_eigen(spec), frame_bounds_eigen(full)
    assert abs(got.lower - want.lower) <= slack and abs(got.upper - want.upper) <= slack


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_frame_records_are_the_stack_records(window):
    # the stack is built in p order, so the spec's records wrap its arrays
    # with no second copy of the values
    spec = make_frame_spec(WINDOWS[window](), 0.5, 4, 0.5, 256)
    g, st = spec.records, spec.stack
    assert g.ps == st.ps == tuple(range(-st.ps[-1], st.ps[-1] + 1))
    assert np.shares_memory(g.values, st.values)
    for a, b in ((g.lo, st.lo), (g.hi, st.hi), (g.offset, st.offset)):
        assert a is b
    assert np.array_equal(g.w, [spec.width(p) for p in g.ps]) and np.array_equal(g.m, 4 * g.w)


def test_core_records_view_the_full_records_values():
    # the core narrows only the extents: it reads the full records' own
    # values at their own offsets, and holds no second array; at alpha = 0
    # a Gaussian core holds 28% of the 124,478 record bins
    spec = make_frame_spec(gaussian_window(), 0.5, 8, 0, 2048)
    g, c = spec.records, spec.core
    assert c.values is g.values and c.offset is g.offset
    assert int((c.hi - c.lo).sum()) == 34784 and int((g.hi - g.lo).sum()) == g.values.size == 124478
    assert np.all((g.lo <= c.lo) & (c.hi <= g.hi) | (c.hi == c.lo))


def test_compact_windows_keep_their_extents():
    spec = make_frame_spec(truncated_gaussian(0.1), 0.5, 8, 0, 2048)
    assert spec.records.values.size == spec.core.values.size == 10238
    assert np.array_equal(spec.core.lo, spec.records.lo) and np.array_equal(spec.core.hi, spec.records.hi)


def test_fold_counts_one_slot_per_residue_on_the_support():
    # the compact fold has min(extent, m) slots a band: alpha = 1 folds
    # 2,232 slots where m = q w per band would take 65,528
    spec = gauss_spec(q=8, alpha=1, n=2048)
    assert sum(c.size for c in spec.chunks) == 2232
    assert sum(sum((b - a) * m for a, b, _, m in c.runs) for c in spec.chunks) == 65528


@pytest.mark.parametrize("length", [1, 5])
def test_synthesis_refuses_blocks_of_another_shape(length):
    # every band at alpha 0, q 2 takes P = 2 coefficients: a block of any
    # other length is refused by band, with both shapes, whether every
    # block or one among good ones has it, before any is spread
    spec = gauss_spec(q=2, alpha=0, n=64)
    good = {b: np.ones(2) for b in spec.p_range}
    for p, coeffs in ((spec.p_range[0], {b: np.ones(length) for b in spec.p_range}),
                      (3, {**good, 3: np.ones(length)})):
        with pytest.raises(ValueError) as err:
            synthesize(spec, FrameCoefficients(spec, coeffs))
        assert str(err.value) == f"coefficients for band {p} have shape ({length},), the band takes (2,)"
    # a well-shaped dict gives the same bits on every call
    once = synthesize(spec, FrameCoefficients(spec, good)).coeffs
    assert same_bits(synthesize(spec, FrameCoefficients(spec, good)).coeffs, once)


def test_huge_q_analysis_refuses_where_reconstruction_is_exact():
    # q = 2^40 asks 2^40 coefficient slots a band: analysis and synthesis
    # refuse, while reconstruction folds into at most one slot per bin
    rng = np.random.default_rng(20)
    spec = gauss_spec(q=1 << 40, alpha=0, n=64)
    fs = random_spectrum(rng, 64)
    with pytest.raises(ValueError, match=f"exceeds the cap {COEFF_CAP}; reduce q"):
        analyze(spec, fs)
    with pytest.raises(ValueError, match=f"exceeds the cap {COEFF_CAP}; reduce q"):
        synthesize(spec, FrameCoefficients(spec, {p: np.zeros(1) for p in spec.p_range}))
    rec, rel = reconstruct(spec, fs)
    assert rel < 1e-13
    assert np.max(np.abs(rec.coeffs - fs.coeffs)) < 1e-13 * np.max(np.abs(fs.coeffs))


def test_analysis_caps_the_coefficients_of_all_bands_not_of_a_chunk(monkeypatch):
    # at alpha = 0, q = 8, n = 256 the 513 bands of 8 slots fill two chunks
    # of 3,864 and 240 slots: under a cap of 4,000 each chunk fits, the
    # family does not, and reconstruction, which forms no coefficients, runs
    rng = np.random.default_rng(21)
    fs = random_spectrum(rng, 256)
    want, rel_want = reconstruct(gauss_spec(q=8, alpha=0, n=256), fs)
    monkeypatch.setattr(frame1d, "COEFF_CAP", 4000)
    spec = gauss_spec(q=8, alpha=0, n=256)
    assert [sum((b - a) * m for a, b, _, m in c.runs) for c in spec._fold_chunks()] == [3864, 240]
    refused = "coefficient count 4104 exceeds the cap 4000; reduce q"
    with pytest.raises(ValueError, match=refused):
        analyze(spec, fs)
    for order in (spec.p_range, spec.p_range[::-1]):
        with pytest.raises(ValueError, match=refused):
            synthesize(spec, FrameCoefficients(spec, {p: np.zeros(8) for p in order}))
    assert "chunks" not in vars(spec)
    rec, rel = reconstruct(spec, fs)
    assert same_bits(rec.coeffs, want.coeffs) and rel == rel_want
