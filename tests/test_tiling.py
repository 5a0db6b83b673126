"""Separable tilings and frames in dimension d: combinatorics, oracles."""

import math
from functools import reduce
from itertools import product

import numpy as np
import pytest

from stockframe import frame1d
from stockframe.frame1d import EIGEN_SIZE_CAP, FrameGapError, frame_bounds_eigen, make_frame_spec
from stockframe.tiling import (
    AXIS_CAP,
    TILE_CAP,
    BoxIndex,
    NdBoundReport,
    NdConjugate,
    NdFrameSpec,
    admissible_ells,
    analyze_nd,
    build_tiling,
    conjugate_filter_nd,
    element_nd,
    frame_operator_apply_nd,
    from_spectrum_nd,
    make_nd_frame_spec,
    reconstruct_nd,
    synthesize_nd,
    to_spectrum_nd,
    walnut_apply_nd,
    walnut_bounds_nd,
)
from stockframe.window import COEFF_CAP, gaussian_window, table_window, truncated_gaussian
from roundtrip import check_split, fold_order_reconstruct, per_call_reconstruct
from tailbound import (analysis_bound, check_trim, dense_records, kernel_roundoff, reconstruct_bound, shift_pairs,
                       synthesis_bound, walnut_bound, walnut_kernel)


def small_spec(d=2, n=16, q=2, mu=0.5, window=None):
    return make_nd_frame_spec(window or gaussian_window(), mu, q, d, n)


def random_field(rng, d, n):
    shape = (n,) * d
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


WINDOWS = {"gaussian": gaussian_window, "tgauss": lambda: truncated_gaussian(0.1)}
GRID = {1: 32, 2: 16, 3: 8}
FACTOR_WINDOWS = {"gaussian": gaussian_window, "tgauss0.1": lambda: truncated_gaussian(0.1),
                  "tgauss1.0": lambda: truncated_gaussian(1.0)}


# Dense references: every box folds, transforms and spreads over the whole
# n^d grid, one box at a time.

def axis_frequencies(spec):
    return np.arange(-(spec.n // 2), spec.n // 2)


def box_norm(spec, box):
    # b^(d/2), b the box's width (1 for DC)
    return float(spec.records.w[spec.factor_rows(box)[0]]) ** (spec.d / 2.0)


def jmod_index(spec, m):
    return np.ix_(*[axis_frequencies(spec) % m] * spec.d)


def dense_sum_of_squares(spec):
    """H0 on dense grid arrays, in the engine's order: per tuple of the
    other factors, the boxes' last factors squared, in tiling order; then
    axis by axis, last first, each tuple's factor squared times its sum,
    over the tuples in record order."""
    squares = [f * f for f in dense_factors(spec).values()]  # in record order
    acc = {}
    for box in spec.tiling.boxes:
        *head, last = spec.factor_rows(box)
        acc[tuple(head)] = acc.get(tuple(head), 0.0) + squares[last]
    for _ in range(spec.d - 1):
        out = {}
        for key in sorted(acc):
            *head, a = key
            out[tuple(head)] = out.get(tuple(head), 0.0) + np.multiply.outer(squares[a], acc[key])
        acc = out
    return acc[()]


def per_box_sum_of_squares(spec):
    # the sum box by box over the whole grid, each stack squared
    h0 = np.zeros((spec.n,) * spec.d)
    for box in spec.tiling.boxes:
        stack = spec.box_stack(box)
        h0 += stack * stack
    return h0


def reorder_bound(spec):
    """How far, relative to either, two sums of the same positive H0 terms
    in different orders can differ: a term takes at most K = d (boxes + 2)
    roundings on either path (per axis a square, a product and an add per
    box), so each sum is within gamma_K of the exact one."""
    ku = spec.d * (len(spec.tiling.boxes) + 2) * 2.0 ** -53  # K times the unit round-off
    gamma = ku / (1 - ku)
    return 2 * gamma / (1 - gamma)


def dense_analyze_box(spec, fhat, box, stack):
    m = spec.box_period(box)
    folded = np.zeros((m,) * spec.d, dtype=np.complex128)
    np.add.at(folded, jmod_index(spec, m), fhat * stack)
    return (m ** spec.d) * np.fft.ifftn(folded) / box_norm(spec, box)


def dense_synthesize(spec, coeffs):
    acc = np.zeros((spec.n,) * spec.d, dtype=np.complex128)
    for box, cbox in coeffs.items():
        stack = spec.box_stack(box)
        spread = np.fft.fftn(cbox)[jmod_index(spec, spec.box_period(box))]
        acc += stack * spread / box_norm(spec, box)
    return acc


def dense_factors(spec):
    """Each axis factor summed point by point over the whole grid, by key:
    (p, e) sums over mu * [e b, (e+1) b), b = 2^(p-1), and DC (None) over
    mu * {-1, 0}."""
    j = axis_frequencies(spec)
    factors = {}
    for key in [*((p, e) for p in range(1, spec.tiling.p_max + 1) for e in (-2, -1, 0, 1)), None]:
        etas = range(-1, 1) if key is None else range(key[1] << (key[0] - 1), (key[1] + 1) << (key[0] - 1))
        row = np.zeros(spec.n)
        for eta in etas:
            row += spec.window.freq_profile(j - spec.mu * eta)
        factors[key] = row
    return factors


def box_keys(spec, box):
    return [None] * spec.d if box.ell is None else [(box.p, e) for e in box.ell]


def shift_nd(values, shifts):
    out = np.zeros(values.shape, dtype=values.dtype)
    src, dst = [], []
    for s, n in zip(shifts, values.shape):
        if abs(s) >= n:
            return out
        if s >= 0:
            dst.append(slice(s, n))
            src.append(slice(0, n - s))
        else:
            dst.append(slice(0, n + s))
            src.append(slice(-s, n))
    out[tuple(dst)] = values[tuple(src)]
    return out


def axis_limits(facs, step, k_max):
    """Per axis, the largest shift count whose product can be nonzero;
    None when the box stack vanishes."""
    limits = []
    for fac in facs:
        nz = np.flatnonzero(fac)
        if nz.size == 0:
            return None
        lim = int(nz[-1] - nz[0]) // step
        limits.append(lim if k_max is None else min(lim, k_max))
    return limits


def dense_core_factors(spec):
    """dense_factors cut, as the core records are, each to the span of its
    samples of magnitude >= TAU times the largest of any factor."""
    factors = dense_factors(spec)
    top = frame1d.TAU * max(float(np.max(np.abs(fac))) for fac in factors.values())
    cores = {}
    for key, fac in factors.items():
        keep = np.flatnonzero(np.abs(fac) >= top)
        cores[key] = np.zeros_like(fac)
        if keep.size:
            cores[key][keep[0]:keep[-1] + 1] = fac[keep[0]:keep[-1] + 1]
    return cores


def dense_walnut_apply_nd(spec, fhat, k_max=None):
    # every shift of every box over the whole grid, kvec after kvec, on
    # the factors' cores, as the Walnut sum reads them
    factors = dense_core_factors(spec)
    acc = np.zeros((spec.n,) * spec.d, dtype=np.complex128)
    for box in spec.tiling.boxes:
        facs = [factors[key] for key in box_keys(spec, box)]
        stack = reduce(np.multiply.outer, facs)
        base = fhat * stack
        step = spec.box_period(box)
        limits = axis_limits(facs, step, k_max)
        if limits is None:
            continue
        for kvec in product(*(range(-lim, lim + 1) for lim in limits)):
            acc += shift_nd(base, tuple(k * step for k in kvec)) * stack
    return (spec.q ** spec.d) * acc


def dense_walnut_bounds_nd(spec, k_max=None):
    # per-factor sups over the whole grid, expanded box by box
    if k_max is None:
        k_max = math.ceil(spec.n / (2 * spec.q))
    factors = dense_factors(spec)
    h_tail = 0.0
    sups = {}
    for box in spec.tiling.boxes:
        keys = box_keys(spec, box)
        facs = [factors[key] for key in keys]
        step = spec.box_period(box)
        limits = axis_limits(facs, step, k_max)
        if limits is None:
            continue
        for key, fac, lim in zip(keys, facs, limits):
            if key not in sups:
                sups[key] = (float(np.max(fac * fac)),
                             2.0 * sum(float(np.max(fac[k * step:] * fac[:-k * step]))
                                       for k in range(1, lim + 1) if k * step < spec.n))
        diag = [sups[key][0] for key in keys]
        tails = [sups[key][1] for key in keys]
        for mask in range(1, 1 << spec.d):
            term = 1.0
            for s in range(spec.d):
                term *= tails[s] if mask >> s & 1 else diag[s]
            h_tail += term
    h0 = dense_sum_of_squares(spec)
    return NdBoundReport(float(h0.min()), float(h0.max()), h_tail, spec.nu, k_max, spec.d)


def coefficient_round_trip(spec, fhat):
    # analysis against the conjugate dual, then synthesis with the stacks
    h0 = dense_sum_of_squares(spec)
    coeffs = {box: dense_analyze_box(spec, fhat, box, spec.nu ** spec.d * spec.box_stack(box) / h0)
              for box in spec.tiling.boxes}
    return dense_synthesize(spec, coeffs)


# ---------------------------------------------------------------- combinatorics


@pytest.mark.parametrize("d,count", [(1, 2), (2, 12), (3, 56)])
def test_shell_box_count(d, count):
    ells = admissible_ells(d)
    assert len(ells) == count
    assert len(set(ells)) == count
    # independent count: all corners in {-2..1}^d minus the inner {-1,0}^d
    assert count == 4**d - 2**d
    for ell in ells:
        assert any(e in (-2, 1) for e in ell)
        assert all(-2 <= e <= 1 for e in ell)


def test_tiling_partitions_the_cube_exactly():
    for d in (1, 2):
        p_max = 4
        tiling = build_tiling(d, p_max)
        side = 1 << p_max
        seen = {}
        for box in tiling.boxes:
            for point in product(*tiling.lattice_axes(box)):
                assert point not in seen, f"{point} covered twice"
                seen[point] = box
        expected = set(product(range(-side, side), repeat=d))
        assert set(seen) == expected
        # locate agrees with the enumeration
        for point, box in seen.items():
            assert tiling.locate(point) == box


def test_locate_edges_and_errors():
    tiling = build_tiling(2, 3)
    assert tiling.locate((0, 0)) == BoxIndex(0, None)
    assert tiling.locate((-1, -2)) == BoxIndex(1, (-1, -2))
    assert tiling.locate((7, -8)) == BoxIndex(3, (1, -2))
    with pytest.raises(ValueError):
        tiling.locate((8, 0))
    with pytest.raises(ValueError):
        tiling.locate((0, -9))
    with pytest.raises(ValueError):
        tiling.locate((0, 0, 0))


def test_box_point_counts_sum_to_cube():
    tiling = build_tiling(2, 5)
    total = sum(tiling.point_count(box) for box in tiling.boxes)
    assert total == (2 * 2**5) ** 2


def test_build_tiling_validation():
    with pytest.raises(ValueError):
        build_tiling(0, 3)
    with pytest.raises(ValueError):
        build_tiling(2, 0)


def test_build_tiling_refuses_tables_past_the_box_cap():
    # 1 + p_max (4^d - 2^d) boxes, counted before any is listed
    assert len(build_tiling(8, 1).boxes) == 65281 <= TILE_CAP
    for d, p_max in [(8, 2), (9, 1), (1000, 1)]:
        with pytest.raises(ValueError, match="exceeds the cap"):
            build_tiling(d, p_max)


# ---------------------------------------------------------------- spec construction


def test_axis_factors_match_1d_stack():
    # d = 1 boxes (p, ell=1) tile [2^(p-1), 2^p), the same dyadic bands the
    # 1d frame uses, with the same lattice; the arrays must agree bit for bit
    nd = make_nd_frame_spec(gaussian_window(), 0.5, 4, 1, 64)
    one = make_frame_spec(gaussian_window(), 0.5, 4, 1, 64)
    for p in range(1, min(nd.tiling.p_max, max(one.p_range)) + 1):
        box = BoxIndex(p, (1,))
        lo, hi = nd.tiling.axis_ranges(box)[0]
        iv = one.partition.interval(p)
        assert (lo, hi) == (iv.start, iv.stop)
        assert np.array_equal(nd.box_stack(box), one.stack.band(p))


def test_sum_of_squares_matches_box_enumeration():
    spec = small_spec(d=2, n=16)
    direct = sum(spec.box_stack(box) ** 2 for box in spec.tiling.boxes)
    assert np.max(np.abs(spec.sum_of_squares() - direct)) < 1e-14


def test_spec_validation():
    win = gaussian_window()
    with pytest.raises(ValueError):
        make_nd_frame_spec(win, 0.5, 2, 4, 16)  # d = 4 unsupported
    with pytest.raises(ValueError):
        make_nd_frame_spec(win, 0.5, 2, 2, AXIS_CAP[2] + 2)
    with pytest.raises(ValueError):
        make_nd_frame_spec(win, 0.5, 2, 2, 15)
    with pytest.raises(ValueError):
        make_nd_frame_spec(win, 0.0, 2, 2, 16)
    with pytest.raises(ValueError):
        make_nd_frame_spec(win, 0.5, 0, 2, 16)
    with pytest.raises(ValueError, match="p_max must be <= 62"):
        make_nd_frame_spec(win, 0.5, 2, 2, 16, p_max=63)


def test_coefficient_budget_guard():
    spec = make_nd_frame_spec(gaussian_window(), 0.5, 8, 3, 32)
    with pytest.raises(ValueError, match="coefficient count"):
        analyze_nd(spec, np.zeros((32, 32, 32), dtype=complex))


def test_reconstruct_nd_is_not_bound_by_the_coefficient_budget():
    # reconstruction forms no coefficients, so the spec analysis refuses
    # still reconstructs
    rng = np.random.default_rng(32)
    spec = make_nd_frame_spec(gaussian_window(), 0.5, 8, 3, 32)
    _, rel = reconstruct_nd(spec, random_field(rng, 3, 32))
    assert rel < 1e-13


# ---------------------------------------------------------------- transform


def test_spectrum_nd_matches_stacked_1d():
    rng = np.random.default_rng(21)
    x = random_field(rng, 2, 8)
    got = to_spectrum_nd(x)
    want = np.fft.fftshift(np.fft.fft2(x)) / 64
    assert np.max(np.abs(got - want)) < 1e-14
    back = from_spectrum_nd(got)
    assert np.max(np.abs(back - x)) < 1e-12


# ---------------------------------------------------------------- oracles


def test_analyze_nd_matches_literal_inner_products():
    rng = np.random.default_rng(22)
    spec = small_spec(d=2, n=8, q=2)
    fhat = random_field(rng, 2, 8)
    coeffs = analyze_nd(spec, fhat)
    for box in spec.tiling.boxes:
        m = spec.box_period(box)
        cbox = coeffs[box]
        assert cbox.shape == (m, m)
        for kvec in [(0, 0), (1, 0), (m - 1, m - 1)]:
            e = element_nd(spec, box, kvec)
            want = np.sum(fhat * np.conj(e))
            assert abs(cbox[kvec] - want) < 1e-12


def test_synthesize_nd_matches_literal_element_sum():
    rng = np.random.default_rng(23)
    spec = small_spec(d=2, n=8, q=1)
    fhat = random_field(rng, 2, 8)
    coeffs = analyze_nd(spec, fhat)
    want = np.zeros((8, 8), dtype=complex)
    for box, cbox in coeffs.items():
        m = spec.box_period(box)
        for kvec in product(range(m), repeat=2):
            want += cbox[kvec] * element_nd(spec, box, kvec)
    got = synthesize_nd(spec, coeffs)
    assert np.max(np.abs(got - want)) < 1e-11


def test_element_nd_validation():
    spec = small_spec(d=2, n=8, q=2)
    box = spec.tiling.boxes[0]
    with pytest.raises(ValueError):
        element_nd(spec, box, (0,))
    with pytest.raises(ValueError):
        element_nd(spec, box, (0, spec.box_period(box)))


def test_element_nd_refuses_non_integer_slots():
    spec = small_spec(d=2, n=8, q=2)
    box = spec.tiling.boxes[1]
    with pytest.raises(ValueError, match="not an integer"):
        element_nd(spec, box, (0, 0.5))
    # an integral value names the same element
    assert np.array_equal(element_nd(spec, box, (1.0, 0)), element_nd(spec, box, (1, 0)))


# ---------------------------------------------------------------- operator


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
def test_walnut_equals_frame_operator_nd(d, n):
    # both read the core box records: they differ by round-off alone
    rng = np.random.default_rng(24)
    spec = small_spec(d=d, n=n, q=2)
    fhat = random_field(rng, d, n)
    a = frame_operator_apply_nd(spec, fhat)
    b = walnut_apply_nd(spec, fhat)
    assert np.max(np.abs(a - b)) < 1e-14 * float(np.max(np.abs(a)))


def test_frame_operator_nd_is_self_adjoint_and_positive():
    rng = np.random.default_rng(25)
    spec = small_spec(d=2, n=12, q=2)
    f = random_field(rng, 2, 12)
    g = random_field(rng, 2, 12)
    sf = frame_operator_apply_nd(spec, f)
    sg = frame_operator_apply_nd(spec, g)
    lhs = np.sum(sf * np.conj(g))
    rhs = np.sum(f * np.conj(sg))
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    quad = np.sum(sf * np.conj(f)).real
    assert quad > 0


def test_walnut_bounds_nd_sandwich_quadratic_form():
    rng = np.random.default_rng(26)
    spec = small_spec(d=2, n=16, q=4)
    rep = walnut_bounds_nd(spec)
    assert 0 < rep.lower <= rep.upper
    for _ in range(5):
        fhat = random_field(rng, 2, 16)
        quad = np.sum(frame_operator_apply_nd(spec, fhat) * np.conj(fhat)).real
        norm2 = float(np.sum(np.abs(fhat) ** 2))
        assert rep.lower * norm2 - 1e-9 <= quad <= rep.upper * norm2 + 1e-9


def test_painless_nd_tail_vanishes():
    spec = make_nd_frame_spec(truncated_gaussian(0.1), 0.5, 4, 2, 16)
    rep = walnut_bounds_nd(spec)
    assert rep.h_tail == 0.0
    h0 = spec.sum_of_squares()
    assert rep.lower == pytest.approx(16 * float(h0.min()), rel=1e-12)
    assert rep.upper == pytest.approx(16 * float(h0.max()), rel=1e-12)


def test_nd_tail_survives_tiny_magnitudes():
    # the cross-term expansion must keep tails far below one ulp of the
    # diagonal product from cancelling to zero
    spec = small_spec(d=2, n=16, q=8)
    rep = walnut_bounds_nd(spec)
    assert 0 < rep.h_tail < 1e-12


def dense_operator_nd(spec):
    """The frame operator's matrix on the n^d grid points, one column per
    unit field through analysis + synthesis."""
    size = spec.n ** spec.d
    mat = np.empty((size, size), dtype=np.complex128)
    for col in range(size):
        unit = np.zeros(size, dtype=np.complex128)
        unit[col] = 1.0
        mat[:, col] = frame_operator_apply_nd(spec, unit.reshape((spec.n,) * spec.d)).ravel()
    return mat


@pytest.mark.parametrize("n,q", [(8, 2), (16, 1)])
def test_eigenbounds_nd_match_column_applied_operator(n, q):
    spec = small_spec(d=2, n=n, q=q)
    mat = dense_operator_nd(spec)
    eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    bounds = frame_bounds_eigen(spec)
    # the operator is assembled from the Walnut kernel, not this FFT pair
    assert abs(bounds.lower - eigs[0]) <= 1e-13 * abs(eigs[0])
    assert abs(bounds.upper - eigs[-1]) <= 1e-13 * abs(eigs[-1])


def test_eigenbounds_nd_painless_equal_walnut_bounds():
    # every shifted product vanishes: S is q^d H0, and the bounds are
    # attained.  The kernel adds its diagonal box by box, H0 axis by axis:
    # the same positive terms in another order
    spec = small_spec(d=2, n=16, q=4, window=truncated_gaussian(0.1))
    rep, eig = walnut_bounds_nd(spec), frame_bounds_eigen(spec)
    assert rep.h_tail == 0.0
    diagonal = spec.q ** spec.d * per_box_sum_of_squares(spec)
    assert (eig.lower, eig.upper) == (float(diagonal.min()), float(diagonal.max()))
    for got, want in ((rep.lower, eig.lower), (rep.upper, eig.upper)):
        assert abs(got - want) <= reorder_bound(spec) * want


@pytest.mark.parametrize("q", [1, 2])
def test_walnut_bounds_nd_bracket_eigenbounds(q):
    spec = small_spec(d=3, n=8, q=q)
    rep, eig = walnut_bounds_nd(spec), frame_bounds_eigen(spec)
    assert 0.0 < eig.lower <= eig.upper
    assert rep.lower <= eig.lower and eig.upper <= rep.upper


def test_eigenbounds_nd_refuse_grids_past_the_cap():
    spec = small_spec(d=2, n=64)
    assert 64 < EIGEN_SIZE_CAP < 64 ** 2
    with pytest.raises(ValueError, match=r"1024 grid points, got n\^d = 64\^2 = 4096"):
        frame_bounds_eigen(spec)


# ---------------------------------------------------------------- duals


@pytest.mark.parametrize("d,n,q", [(1, 32, 4), (2, 16, 4), (3, 8, 4)])
def test_reconstruct_nd(d, n, q):
    rng = np.random.default_rng(27)
    spec = small_spec(d=d, n=n, q=q)
    fhat = random_field(rng, d, n)
    rec, rel = reconstruct_nd(spec, fhat)
    assert rel < 1e-5
    assert rec.shape == fhat.shape


def test_reconstruct_nd_painless_is_exact():
    rng = np.random.default_rng(28)
    spec = make_nd_frame_spec(truncated_gaussian(0.1), 0.5, 4, 2, 16)
    fhat = random_field(rng, 2, 16)
    _, rel = reconstruct_nd(spec, fhat)
    assert rel < 1e-12


@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_reconstruct_nd_matches_coefficient_round_trip(d, window, q):
    rng = np.random.default_rng(29)
    n = GRID[d]
    spec = make_nd_frame_spec(WINDOWS[window](), 0.5, q, d, n)
    fhat = random_field(rng, d, n)
    rec, rel = reconstruct_nd(spec, fhat)
    want = coefficient_round_trip(spec, fhat)
    assert np.max(np.abs(rec - want)) <= 1e-13 * np.max(np.abs(fhat))
    assert rel == norm(rec - fhat) / norm(fhat)
    if window == "tgauss" and q == 4:  # painless: q > 2 * 1.1 + mu
        assert rel < 1e-15


def test_reconstruct_nd_with_boxes_beyond_the_grid():
    # p_max past the default adds boxes whose compact factors vanish on the grid
    rng = np.random.default_rng(30)
    spec = make_nd_frame_spec(truncated_gaussian(0.1), 0.5, 2, 2, 16, p_max=6)
    assert np.any(spec.records.lo == spec.records.hi)
    fhat = random_field(rng, 2, 16)
    rec, _ = reconstruct_nd(spec, fhat)
    assert np.max(np.abs(rec - coefficient_round_trip(spec, fhat))) <= 1e-13 * np.max(np.abs(fhat))


def box_engine_cases():
    """(d, window, q, mu, chunk).  q = 1 folds supports longer than the
    period, q = 8 gives periods past n, and mu = 3 boxes that vanish on
    the grid; chunks of 64 and 1 bins cut the box records into up to one
    chunk per box.  q = 2, mu = 0.5 at the default chunk keeps the plain
    test id."""
    for d, window, q, mu, chunk in product((1, 2, 3), sorted(WINDOWS), (1, 2, 3, 8), (0.5, 3.0),
                                           (frame1d._TERM_CHUNK, 64, 1)):
        tag = "" if (q, mu) == (2, 0.5) else f"-q{q}-mu{mu:g}"
        tag += "" if chunk == frame1d._TERM_CHUNK else f"-chunk{chunk}"
        yield pytest.param(d, window, q, mu, chunk, id=f"{d}-{window}{tag}")


@pytest.mark.parametrize("d, window, q, mu, chunk", box_engine_cases())
def test_box_engine_is_bit_identical_to_dense_reference(d, window, q, mu, chunk, monkeypatch):
    # the spec holds its box chunks once built: set their size first
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    rng = np.random.default_rng(31)
    n = GRID[d]
    spec = make_nd_frame_spec(WINDOWS[window](), mu, q, d, n)
    fhat = random_field(rng, d, n)

    h0 = dense_sum_of_squares(spec)
    assert np.array_equal(spec.sum_of_squares(), h0)
    # the box-by-box sum adds the same positive terms in another order
    per_box = per_box_sum_of_squares(spec)
    assert np.all(np.abs(h0 - per_box) <= reorder_bound(spec) * per_box)
    conj = conjugate_filter_nd(spec)
    assert np.array_equal(spec.h0, h0)
    # the residual adds each bin's products in box order
    nu_d = spec.nu ** d
    acc = np.zeros((n,) * d)
    for box in spec.tiling.boxes:
        stack = spec.box_stack(box)
        acc += nu_d * stack / h0 * stack
    assert conj.partition_residual() == float(np.max(np.abs(acc - nu_d)))

    coeffs = analyze_nd(spec, fhat)
    assert list(coeffs) == list(spec.tiling.boxes)
    for box, cbox in coeffs.items():
        assert np.array_equal(cbox, dense_analyze_box(spec, fhat, box, spec.box_stack(box)))

    assert np.array_equal(synthesize_nd(spec, coeffs), dense_synthesize(spec, coeffs))
    # boxes add in tiling order, whatever the order of the dict
    backwards = dict(reversed(list(coeffs.items())))
    assert same_bits(synthesize_nd(spec, backwards), synthesize_nd(spec, coeffs))

    # reconstruction folds in C order on the supports: round-off equal to
    # the coefficient round trip, scaled by the output; at d = 3, mu = 3
    # the two differ by up to 3.1e-13 of it, as the axis-by-axis fold did
    rec, _ = reconstruct_nd(spec, fhat)
    assert np.max(np.abs(rec - coefficient_round_trip(spec, fhat))) <= 1e-12 * np.max(np.abs(rec))


def norm(x):
    # the l2 norm as the round trips take it: numpy's pairwise sum of the
    # squared parts, not BLAS, so the same under any thread count
    parts = np.ravel(x).view(np.float64)
    return math.sqrt(float(np.sum(parts * parts)))


def per_call_reconstruct_nd(spec, fhat, h0, chunks=None):
    # reconstruct_nd in its documented order, the dual formed on every
    # call (roundtrip.per_call_reconstruct), on the spec's chunks by default
    chunks = spec.chunks if chunks is None else chunks
    rec = per_call_reconstruct(fhat.ravel(), h0.ravel(), chunks, spec.nu ** spec.d,
                               spec.q ** spec.d).reshape(fhat.shape)
    return rec, norm(rec - fhat) / norm(fhat)


def per_call_residual_nd(spec, h0):
    h0, nu_d = h0.ravel(), spec.nu ** spec.d
    acc = np.zeros(h0.size)
    for c in spec.chunks:
        np.add.at(acc, c.bins, nu_d * c.values / h0[c.bins] * c.values)
    return float(np.max(np.abs(acc - nu_d)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("d, window, q, mu, chunk",
                         [(d, w, q, mu, chunk) for d, w, q, mu, chunk in product(
                             (1, 2, 3), sorted(WINDOWS), (1, 2, 8), (0.5, 3.0), (frame1d._TERM_CHUNK, 1))])
def test_held_dual_nd_is_bit_identical_to_the_per_call_dual(d, window, q, mu, chunk, held,
                                                              monkeypatch):
    # held: the spec holds its chunks when it first reconstructs (an
    # analysis came first); else it reconstructs holding none, and the
    # split is built from chunks read as they are built
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    original, calls = frame1d._duals, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frame1d, "_duals", counting)
    rng = np.random.default_rng(36)
    n = GRID[d]
    spec = make_nd_frame_spec(WINDOWS[window](), mu, q, d, n)
    fhat = random_field(rng, d, n)
    chunks = spec.chunks if held else spec._fold_chunks()
    rec_want, rel_want = per_call_reconstruct_nd(spec, fhat, spec.h0, chunks)
    for _ in range(2):
        rec, rel = reconstruct_nd(spec, fhat)
        assert same_bits(rec, rec_want)
        assert rel == rel_want
    assert ("chunks" in vars(spec)) == held
    assert conjugate_filter_nd(spec).partition_residual() == per_call_residual_nd(spec, spec.h0)
    # the split built once per spec; the residual's dual on the full box
    # records is the other call
    assert len(calls) == 2
    # read-only, each core (box, bin) in D or the alias part
    check_split(spec.split, spec.chunks, spec.q ** spec.d)
    # the fold of every bin, the order before the split, to round-off
    old = fold_order_reconstruct(fhat.ravel(), spec.h0.ravel(), spec.chunks, spec.nu ** spec.d,
                                 spec.q ** spec.d).reshape(rec.shape)
    assert np.max(np.abs(rec - old)) <= 1e-14 * np.max(np.abs(rec))


def test_records_bound_the_nonzero_bins():
    for window, p_max in product(sorted(FACTOR_WINDOWS), (None, 9)):
        spec = make_nd_frame_spec(FACTOR_WINDOWS[window](), 0.5, 2, 2, 32, p_max=p_max)
        g = spec.records
        factors = dense_factors(spec)
        assert g.ps == tuple(factors)
        for b, (key, fac) in enumerate(factors.items()):
            lo, hi = int(g.lo[b]), int(g.hi[b])
            values = g.values[lo + g.offset[b]:hi + g.offset[b]]
            # equal with the sign bits
            assert np.array_equal(values.view(np.int64), fac[lo:hi].view(np.int64))
            assert not fac[:lo].any() and not fac[hi:].any()
            if hi > lo:
                assert fac[lo] != 0 and fac[hi - 1] != 0
            w = 1 if key is None else 1 << (key[0] - 1)
            assert g.w[b] == w and g.m[b] == min(spec.q * w, spec.n)
        assert np.array_equal(spec.dc_factor, factors[None])
        for box in spec.tiling.boxes:
            assert np.array_equal(spec.box_stack(box),
                                  reduce(np.multiply.outer, [factors[k] for k in box_keys(spec, box)]))


def nd_operator_cases():
    for window, d, q, deep in product(sorted(FACTOR_WINDOWS), (1, 2, 3), (1, 2, 4), (False, True)):
        yield pytest.param(window, d, q, deep, 0.5, id=f"{window}-d{d}-q{q}" + ("-deep" if deep else ""))
    # at mu = 8 a factor has up to 16 shift maxima of similar size, where a
    # pairwise sum of them would differ from the sequential one
    for window, d in product(sorted(FACTOR_WINDOWS), (1, 2)):
        yield pytest.param(window, d, 1, False, 8.0, id=f"{window}-d{d}-q1-mu8")


@pytest.mark.parametrize("window, d, q, deep, mu", nd_operator_cases())
def test_walnut_nd_is_bit_identical_to_dense_shift_loops(window, d, q, deep, mu):
    # the dense references shift each box stack over the whole grid, one
    # kvec at a time, and take per-factor sups over the whole grid; deep
    # adds two coronae, whose factors sit off the grid
    n = GRID[d]
    spec = make_nd_frame_spec(FACTOR_WINDOWS[window](), mu, q, d, n)
    if deep:
        spec = make_nd_frame_spec(FACTOR_WINDOWS[window](), mu, q, d, n, p_max=spec.tiling.p_max + 2)
    fhat = random_field(np.random.default_rng(34), d, n)
    for k_max in (None, 1):
        assert np.array_equal(walnut_apply_nd(spec, fhat, k_max=k_max),
                              dense_walnut_apply_nd(spec, fhat, k_max))
        assert walnut_bounds_nd(spec, k_max) == dense_walnut_bounds_nd(spec, k_max)


@pytest.mark.parametrize("d, chunk", [pytest.param(d, chunk, id=f"d{d}-chunk{chunk}")
                                      for d in (1, 2, 3) for chunk in (frame1d._TERM_CHUNK, 64, 1)])
def test_walnut_nd_chunks_of_whole_kvecs_are_bit_identical(d, chunk, monkeypatch):
    # the Walnut sum cuts the kvecs of every box into chunks of about
    # _TERM_CHUNK terms, one kvec an item, so none is ever split: at any
    # chunk size the sum and the bound keep the dense loops' bits
    monkeypatch.setattr(frame1d, "_TERM_CHUNK", chunk)
    items = []
    chunks = frame1d._chunks
    monkeypatch.setattr(frame1d, "_chunks", lambda lengths: items.append(lengths.size) or chunks(lengths))
    n = GRID[d]
    spec = make_nd_frame_spec(truncated_gaussian(1.0), 0.5, 2, d, n)
    factors = dense_core_factors(spec)
    fhat = random_field(np.random.default_rng(35), d, n)
    for k_max in (None, 0, 1):
        items.clear()
        assert same_bits(walnut_apply_nd(spec, fhat, k_max=k_max), dense_walnut_apply_nd(spec, fhat, k_max))
        limits = [axis_limits([factors[key] for key in box_keys(spec, box)], spec.box_period(box), k_max)
                  for box in spec.tiling.boxes]
        assert items == [sum(math.prod(2 * lim + 1 for lim in lims) for lims in limits if lims is not None)]
        assert walnut_bounds_nd(spec, k_max) == dense_walnut_bounds_nd(spec, k_max)


@pytest.mark.parametrize("k_max", [-1, 2.5, np.float64(1.0)])
def test_walnut_nd_refuses_a_k_max_that_is_no_integer_from_zero(k_max):
    spec = small_spec(d=2, n=16, q=2)
    fhat = random_field(np.random.default_rng(31), 2, 16)
    for call in (lambda: walnut_apply_nd(spec, fhat, k_max=k_max), lambda: walnut_bounds_nd(spec, k_max)):
        with pytest.raises(ValueError, match="k_max must be an integer >= 0") as err:
            call()
        assert repr(k_max) in str(err.value)
    assert walnut_bounds_nd(spec, 0) == dense_walnut_bounds_nd(spec, 0)


def test_walnut_nd_report_carries_its_k_max():
    spec = small_spec(d=2, n=16, q=2)
    assert (walnut_bounds_nd(spec).k_max, walnut_bounds_nd(spec).d) == (4, 2)  # ceil(n / 2q)
    assert walnut_bounds_nd(spec, 1).k_max == 1
    assert walnut_bounds_nd(spec, 1) == dense_walnut_bounds_nd(spec, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nd_k_max_past_the_grid_edge_changes_nothing(d):
    # no shift of n or more bins reaches the grid, and every step is >= 1
    n = GRID[d]
    spec = make_nd_frame_spec(gaussian_window(), 0.5, 2, d, n)
    fhat = random_field(np.random.default_rng(36), d, n)
    assert same_bits(walnut_apply_nd(spec, fhat, k_max=10 ** 6), walnut_apply_nd(spec, fhat))
    assert same_bits(walnut_apply_nd(spec, fhat, k_max=n), walnut_apply_nd(spec, fhat))
    far, edge = walnut_bounds_nd(spec, 10 ** 6), walnut_bounds_nd(spec, n)
    assert (far.h_tail, far.lower, far.upper) == (edge.h_tail, edge.lower, edge.upper)
    assert (far.k_max, edge.k_max) == (10 ** 6, n)


def test_conjugate_nd_partition_residual():
    spec = small_spec(d=2, n=16, q=4)
    conj = conjugate_filter_nd(spec)
    assert conj.partition_residual() < 1e-14


def test_reconstruct_nd_builds_h0_once_per_spec(monkeypatch):
    # both frames build H0 in one body, which neither spec overrides
    assert "sum_of_squares" not in vars(NdFrameSpec)
    original, check = frame1d._BoxFrame.sum_of_squares, frame1d._check_gap
    calls, checks = [], []

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(frame1d._BoxFrame, "sum_of_squares", counting)
    monkeypatch.setattr(frame1d, "_check_gap", lambda *args: checks.append(args) or check(*args))
    rng = np.random.default_rng(33)
    spec = small_spec(d=2, n=16, q=4)
    fhat = random_field(rng, 2, 16)
    runs = [reconstruct_nd(spec, fhat), reconstruct_nd(spec, fhat)]
    assert len(calls) == 1
    assert not spec.h0.flags.writeable
    # the gap check still runs on every call
    assert len(checks) == 2
    # the round trip in its documented order on a freshly summed H0
    rec_want, rel_want = per_call_reconstruct_nd(spec, fhat, original(spec), spec._fold_chunks())
    for rec, rel in runs:
        assert np.array_equal(rec, rec_want)
        assert rel == rel_want


def test_conjugate_nd_gap_detection():
    # the filter is the spec's own, so building one runs the gap check:
    # no filter, no residual and no round trip, never a NaN, for a spec
    # whose H0 reaches the floor
    spec = make_nd_frame_spec(truncated_gaussian(0.01), 8.0, 2, 2, 32)
    h0 = spec.sum_of_squares()
    worst = tuple(int(u) - spec.half for u in np.unravel_index(int(np.argmin(h0)), h0.shape))
    fhat = random_field(np.random.default_rng(34), 2, 32)
    for attempt in (lambda: conjugate_filter_nd(spec), lambda: NdConjugate(spec),
                    lambda: reconstruct_nd(spec, fhat)):
        with pytest.raises(FrameGapError) as err:
            attempt()
        assert f"(worst at frequency {worst})" in str(err.value)


@pytest.mark.parametrize("d", [None, 1, 2, 3])
def test_a_window_that_vanishes_everywhere_leaves_h0_zero(d):
    # every factor record is empty (d = None: the 1D frame), so no band
    # adds to H0, and the conjugate filter is refused
    zero = table_window([-1.0, 1.0], [0.0, 0.0])
    spec = make_frame_spec(zero, 0.5, 2, 1, 32) if d is None else make_nd_frame_spec(zero, 0.5, 2, d, GRID[d])
    assert np.all(spec.records.hi == spec.records.lo)
    assert same_bits(spec.h0, np.zeros((spec.n,) * spec.d))
    with pytest.raises(FrameGapError):
        conjugate_filter_nd(spec)


def test_field_shape_check():
    spec = small_spec(d=2, n=16)
    with pytest.raises(ValueError):
        analyze_nd(spec, np.zeros((16, 8), dtype=complex))


@pytest.mark.parametrize("d, n, q", [(1, 64, 8), (2, 32, 1), (2, 32, 8), (3, 16, 2)])
def test_core_boxes_drop_only_terms_below_tau(d, n, q, monkeypatch):
    """f lives on the trimmed tails of the DC box and is zero elsewhere,
    its core included: there the core and full box records give different
    bits, within the bounds of tailbound.py, built from dropped terms of
    at most TAU * peak^d * |f(u)| (peak the largest factor value) times
    their other factors, plus the rounding of either path."""
    with monkeypatch.context() as patch:
        patch.setattr(frame1d, "_core", lambda g: g)  # the engine on the full records
        full = make_nd_frame_spec(gaussian_window(), 0.5, q, d, n)
        assert full.core is full.records
    spec = make_nd_frame_spec(gaussian_window(), 0.5, q, d, n)
    factors = dense_records(spec.core, n)
    boxes = spec.tiling.boxes
    stacks = np.array([spec.box_stack(box).ravel() for box in boxes])
    kept = np.array([reduce(np.multiply.outer, factors[spec.factor_rows(box)]).ravel() for box in boxes])
    top = frame1d.TAU * np.max(np.abs(spec.records.values)) ** d
    check_trim(stacks, kept, top)

    tail = (stacks[0] != 0) & (kept[0] == 0)
    rng = np.random.default_rng(37)
    fhat = np.where(tail, rng.standard_normal(n ** d) + 1j * rng.standard_normal(n ** d), 0.0)
    grid = fhat.reshape((n,) * d)
    root = np.array([box_norm(spec, box) for box in boxes])

    got, coeffs = analyze_nd(spec, grid), analyze_nd(full, grid)
    bound = analysis_bound(stacks, kept, root, fhat, top)
    assert not np.array_equal(got[boxes[0]], coeffs[boxes[0]])
    for b, box in enumerate(boxes):
        assert np.all(np.abs(got[box] - coeffs[box]) <= bound[b])

    got, want = synthesize_nd(spec, coeffs).ravel(), synthesize_nd(full, coeffs).ravel()
    assert np.all(np.abs(got - want) <= synthesis_bound(stacks, kept, root, list(coeffs.values()), top))

    period = [spec.box_period(box) for box in boxes]
    slot = np.array([np.ravel_multi_index(np.meshgrid(*[axis_frequencies(spec) % m] * d, indexing="ij"),
                                          (m,) * d).ravel() for m in period])
    (got, _), (want, _) = reconstruct_nd(spec, grid), reconstruct_nd(full, grid)
    assert not np.array_equal(got, want)
    bound = reconstruct_bound(stacks, kept, slot, np.power(period, d), fhat, spec.h0.ravel(), top)
    assert np.all(np.abs(got - want).ravel() <= bound)


def test_core_factors_view_the_full_factors_values():
    # the core narrows only the factor extents, on the full factors' own
    # values and offsets: 319 core factor bins of 847 at d = 2, n = 64
    spec = make_nd_frame_spec(gaussian_window(), 0.5, 8, 2, 64)
    g, c = spec.records, spec.core
    assert c.values is g.values and c.offset is g.offset
    assert int((c.hi - c.lo).sum()) == 319 and int((g.hi - g.lo).sum()) == g.values.size == 847


@pytest.mark.parametrize("q", [2, 4])
def test_walnut_nd_core_moves_by_no_more_than_its_dropped_terms(q, monkeypatch):
    """The n-D Walnut sum and eigen kernel read the core box records.
    Against the full ones the sum moves by at most the terms the core
    drops, each below TAU * peak^d times the largest box value times
    |f(v)|, plus either path's rounding (tailbound.py); the eigenbounds by
    at most Weyl's ||K_full - K_core||_2 plus either eigensolve's
    round-off."""
    d, n = 2, 16
    with monkeypatch.context() as patch:
        patch.setattr(frame1d, "_core", lambda g: g)  # the engine on the full records
        full = make_nd_frame_spec(gaussian_window(), 0.5, q, d, n)
        assert full.core is full.records
    spec = make_nd_frame_spec(gaussian_window(), 0.5, q, d, n)
    factors = dense_records(spec.core, n)
    boxes = spec.tiling.boxes
    stacks = np.array([spec.box_stack(box).ravel() for box in boxes])
    kept = np.array([reduce(np.multiply.outer, factors[spec.factor_rows(box)]).ravel() for box in boxes])
    top = frame1d.TAU * np.max(np.abs(spec.records.values)) ** d
    check_trim(stacks, kept, top)
    pairs = shift_pairs([spec.box_period(box) for box in boxes], n, d)

    f = random_field(np.random.default_rng(42), d, n).ravel()
    tail = (stacks[0] != 0) & (kept[0] == 0)
    for fhat in (f, np.where(tail, f, 0.0)):
        got = walnut_apply_nd(spec, fhat.reshape((n,) * d)).ravel()
        want = walnut_apply_nd(full, fhat.reshape((n,) * d)).ravel()
        assert np.all(np.abs(got - want) <= q ** d * walnut_bound(stacks, kept, pairs, fhat, top, d))
    # on the tails alone the dropped terms move some bins
    assert not np.array_equal(got, want)

    scale = q ** d
    gap = np.linalg.norm(walnut_kernel(stacks, pairs, scale) - walnut_kernel(kept, pairs, scale), 2)
    slack = gap + 2 * kernel_roundoff(stacks, pairs, scale, d)
    got, want = frame_bounds_eigen(spec), frame_bounds_eigen(full)
    assert abs(got.lower - want.lower) <= slack and abs(got.upper - want.upper) <= slack


def test_rel_err_nd_keeps_its_bits_at_any_scale():
    # the two norms share one power of two: at 2^1020 the input's norm
    # alone overflowed, and rel_err read 0.0
    spec = small_spec(d=2, n=16, q=2)
    fhat = random_field(np.random.default_rng(43), 2, 16)
    runs = [reconstruct_nd(spec, fhat * 2.0 ** k) for k in (0, -565, 565, 1020)]
    rel = runs[0][1]
    assert 1e-6 < rel < 1e-2
    for k, (rec, rel_k) in zip((-565, 565, 1020), runs[1:]):
        assert same_bits(np.array(rel_k), np.array(rel)), k
        assert same_bits(rec, runs[0][0] * 2.0 ** k), k


def test_held_dual_nd_is_built_once_per_spec(monkeypatch):
    # the split is formed on the first reconstruction, not with the spec,
    # from core chunks it does not keep; the residual forms its own dual
    # on the full box records
    original, calls = frame1d._split, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frame1d, "_split", counting)
    spec = make_nd_frame_spec(gaussian_window(), 0.5, 8, 2, 32)
    fhat = random_field(np.random.default_rng(38), 2, 32)
    assert not calls
    first, again = reconstruct_nd(spec, fhat), reconstruct_nd(spec, fhat)
    conjugate_filter_nd(spec).partition_residual()
    assert len(calls) == 1
    assert "chunks" not in vars(spec)
    assert same_bits(first[0], again[0]) and first[1] == again[1]


@pytest.mark.parametrize("d", [None, 1, 2, 3])
def test_chunks_are_held_only_for_analysis_and_synthesis(d, monkeypatch):
    # reconstruction builds the split once, from core chunks it does not
    # keep (d = None: the 1D frame); the first analysis then builds the
    # held chunks, once
    builds, splits = [], []
    for name, calls in (("_box_chunks", builds), ("_split", splits)):
        original = getattr(frame1d, name)
        monkeypatch.setattr(frame1d, name, lambda *args, f=original, c=calls: c.append(args) or f(*args))
    if d is None:
        spec = make_frame_spec(gaussian_window(), 0.5, 2, 0.5, 64)
    else:
        spec = make_nd_frame_spec(gaussian_window(), 0.5, 2, d, GRID[d])
    fhat = random_field(np.random.default_rng(40), spec.d, spec.n).ravel()
    for _ in range(2):
        frame1d._round_trip(spec, fhat)
    assert "chunks" not in vars(spec)
    assert len(builds) == len(splits) == 1
    for _ in range(2):
        frame1d._synthesize(spec, frame1d._analyze(spec, fhat))
    assert isinstance(vars(spec)["chunks"], tuple)
    assert len(builds) == 2 and len(splits) == 1


def dense_fold_order_synthesize(spec, coeffs):
    # the bands of coeffs, in fold order, each spread over the whole grid
    # on its core records, as the engine reads them
    factors = dense_records(spec.core, spec.n)
    acc = np.zeros((spec.n,) * spec.d, dtype=np.complex128)
    for key in spec._fold_keys:
        if key in coeffs:
            rows = spec.factor_rows(key)
            spread = np.fft.fftn(coeffs[key])[jmod_index(spec, spec.q * int(spec.records.w[rows[0]]))]
            acc += reduce(np.multiply.outer, factors[rows]) * spread / box_norm(spec, key)
    return acc.ravel()


@pytest.mark.parametrize("d", [None, 1, 2, 3])
def test_synthesis_reads_the_held_chunks_in_any_order(d, monkeypatch):
    # fold order, a reversed dict and a dict lacking bands all read the
    # chunks one analysis built (d = None: the 1D frame): the bands add in
    # fold order, and a band the dict lacks adds nothing
    builds = []
    monkeypatch.setattr(frame1d, "_box_chunks",
                        lambda *args, f=frame1d._box_chunks: builds.append(args) or f(*args))
    if d is None:
        spec = make_frame_spec(gaussian_window(), 0.5, 2, 0.5, 64)
        unknown = spec.stack.ps[-1] + 1
    else:
        spec = make_nd_frame_spec(gaussian_window(), 0.5, 2, d, GRID[d])
        unknown = BoxIndex(1, (3,) + (0,) * (d - 1))  # a corner index no level has
    fhat = random_field(np.random.default_rng(41), spec.d, spec.n).ravel()
    coeffs = frame1d._analyze(spec, fhat)
    held = spec.chunks
    want = frame1d._synthesize(spec, coeffs)
    backwards = dict(reversed(list(coeffs.items())))
    assert same_bits(frame1d._synthesize(spec, backwards), want)
    some = {key: block for i, (key, block) in enumerate(backwards.items()) if i % 3}
    assert same_bits(frame1d._synthesize(spec, some), dense_fold_order_synthesize(spec, some))
    with pytest.raises(ValueError) as err:
        frame1d._synthesize(spec, {**coeffs, unknown: coeffs[spec._fold_keys[-1]]})
    assert str(unknown) in str(err.value)
    assert len(builds) == 1 and spec.chunks is held


@pytest.mark.parametrize("d", [1, 2, 3])
def test_synthesis_nd_refuses_blocks_of_another_shape(d):
    # a box of period P takes P^d coefficients: (1,)^d blocks, and one
    # block of another shape among good ones, are refused by box, with
    # both shapes, before any is spread
    spec = small_spec(d=d, n=GRID[d])
    good = {box: np.ones((spec.box_period(box),) * d) for box in spec.tiling.boxes}
    box = spec.tiling.boxes[-1]
    for name, coeffs, shape in ((spec.tiling.boxes[0], {b: np.ones((1,) * d) for b in good}, (1,) * d),
                                (box, {**good, box: np.ones(3)}, (3,))):
        with pytest.raises(ValueError) as err:
            synthesize_nd(spec, coeffs)
        want = (spec.box_period(name),) * d
        assert str(err.value) == f"coefficients for band {name} have shape {shape}, the band takes {want}"


def test_element_nd_refuses_a_box_the_tiling_lacks():
    # (3, 0) is no corner index, and the inner boxes of a level belong to
    # finer levels: neither is a tile, though each has factor records
    spec = small_spec()
    for box in (BoxIndex(1, (3, 0)), BoxIndex(2, (0, 0)), BoxIndex(1, None),
                BoxIndex(spec.tiling.p_max + 1, (1, 0)), BoxIndex(1, (1,))):
        with pytest.raises(ValueError, match="not a tile"):
            element_nd(spec, box, (0, 0))
    for box in spec.tiling.boxes:
        assert element_nd(spec, box, (0, 0)).shape == (16, 16)


def test_wide_table_window_family_reconstructs_bit_equal_to_the_per_call_fold():
    # a compact window that stays above TAU over its support keeps whole
    # extents: 1.46M core box bins at d = 3, n = 32, whose split the spec
    # holds like any other
    spec = make_nd_frame_spec(table_window([-8, 0, 8], [0, 1, 0]), 0.5, 8, 3, 32)
    length = spec.core.hi - spec.core.lo
    assert sum(int(np.prod(length[spec.factor_rows(box)])) for box in spec.tiling.boxes) == 1460438
    fhat = random_field(np.random.default_rng(41), 3, 32)
    want, rel_want = per_call_reconstruct_nd(spec, fhat, spec.h0, spec._fold_chunks())
    for _ in range(2):
        rec, rel = reconstruct_nd(spec, fhat)
        assert same_bits(rec, want) and rel == rel_want
    assert "chunks" not in vars(spec)


@pytest.mark.parametrize("d, window, q", [(None, "tgauss", 4), (None, "tgauss", 1 << 62),
                                          (None, "gaussian", 1 << 62)]
                         + [(d, w, q) for d, (w, q) in product(
                             (1, 2, 3), (("tgauss", 4), ("tgauss", 1 << 62), ("gaussian", 1 << 62)))])
def test_painless_split_has_no_alias_part(d, window, q):
    # no compact-fold slot holds two bins, so the round trip is the
    # multiplier D alone; 1D runs q = 2^62 at alpha = 0, where every
    # width is 1 and q w stays in int64
    if d is None:
        spec = make_frame_spec(WINDOWS[window](), 0.5, q, 1 if q == 4 else 0, 256)
    else:
        spec = make_nd_frame_spec(WINDOWS[window](), 0.5, q, d, GRID[d])
    assert all(c.size == c.bins.size for c in spec._fold_chunks())
    fhat = random_field(np.random.default_rng(39), spec.d, spec.n).ravel()
    rec, rel = frame1d._round_trip(spec, fhat)
    assert spec.split.alias == ()
    check_split(spec.split, spec._fold_chunks(), spec.q ** spec.d)
    assert same_bits(rec, spec.split.diagonal * fhat)
    assert rel < 1e-13


def chunk_specs():
    """(d, alpha, window, q) of 1D specs (d = None) and n-D specs, some at
    q = 2^40, whose coefficient blocks pass COEFF_CAP."""
    for alpha, window, q in product((0, 0.3, 0.5, 1), sorted(WINDOWS), (1, 2, 8, 1 << 40)):
        yield pytest.param(None, alpha, window, q, id=f"1d-{alpha}-{window}-q{q}")
    for d, window, q in product((1, 2, 3), sorted(WINDOWS), (1, 8, 1 << 40)):
        yield pytest.param(d, 1, window, q, id=f"{d}d-{window}-q{q}")


@pytest.mark.parametrize("d, alpha, window, q", chunk_specs())
def test_held_chunks_fold_no_more_slots_than_bins(d, alpha, window, q):
    # the compact fold never has more slots than bins; the placement stays
    # inside the blocks of P^d slots, which the held chunks hold only where
    # all of them fit COEFF_CAP
    if d is None:
        spec = make_frame_spec(WINDOWS[window](), 0.5, q, alpha, 256)
    else:
        spec = make_nd_frame_spec(WINDOWS[window](), 0.5, q, d, GRID[d])
    if q > COEFF_CAP:
        with pytest.raises(ValueError, match=f"exceeds the cap {COEFF_CAP}; reduce q"):
            spec.chunks
        chunks = spec._fold_chunks()
    else:
        chunks = spec.chunks
    for c in chunks:
        assert c.size <= c.bins.size
        assert np.all((0 <= c.fold) & (c.fold < c.size))
        if q <= COEFF_CAP:
            blocks = sum((b - a) * period ** spec.d for a, b, _, period in c.runs)
            assert np.all((0 <= c.place) & (c.place < blocks))
