"""Non-stationary frames with band-adapted translation lattices (1D).

For a window stack Phi_p (see window.py) and a translation step nu = 1/q,
the frame element at band p and slot k has spectral coefficients

    element_{p,k}(j) = width**-0.5 * exp(-2 pi i j k / (q*width)) * Phi_p(j),

k = 0 .. q*width - 1.  At alpha = 0 every width is 1 and the family is
exactly the Gabor system of mu-modulations and (k/q)-translations of the
window.

The frame operator S f = sum <f, element> element has the exact spectral
representation (a discrete Walnut sum)

    (S f)^(j) = q * sum_p sum_m (f^ . Phi_p)(j - m*q*width_p) * Phi_p(j),

the m = 0 term being the diagonal q * H0 * f^ with H0 = sum_p Phi_p^2.
`frame_operator_apply` composes analysis and synthesis;  `walnut_apply`
evaluates the shift sum directly; agreement of the two is a structural
self-check, and the m != 0 terms bounded by their sups give certified
frame bounds without any eigensolve:

    A = (inf H0 - h_tail) / nu <= lambda_min,
    lambda_max <= (sup H0 + h_tail) / nu,
    h_tail = sum_p sum_{m != 0} sup_j |Phi_p(j - m*q*width_p) Phi_p(j)|.

For a compactly supported window with support radius L and q > 2L + mu
every shifted product vanishes identically (the painless regime): S is
diagonal and the bounds are attained.

The canonical dual comes from the conjugate filter

    Omega_p = nu * conj(Phi_p) / H0,   sum_p Omega_p Phi_p = nu,

whose elements use the same phases with Omega in place of Phi.  Since
m / w = q, analysis against Omega followed by synthesis with Phi is an
FFT pair that cancels: reconstruction is q Phi_p(j) fold_m(f^ Omega_p)[j
mod m] summed over p, with no coefficients.  A fold slot that holds one
bin of the band folds f^ Omega into that bin alone, so there the term is
the pointwise product q Phi Omega f^ (the painless case of Daubechies,
Grossmann & Meyer, J. Math. Phys. 27, 1986).  Reconstruction is thus a
multiplier plus an aliasing fold (RoundTripSplit): D = q sum Phi Omega
over every (band, bin) alone in its slot, added in band order, and the
bins of the slots of two or more bins, regrouped into alias chunks of
whole slots of about _TERM_CHUNK bins.  The output is D f^, then one
add.at per alias chunk of q Phi fold(f^ Omega)[fold], in band order.  A
painless spec has no alias part; where every slot aliases, D = 0 and the
folds are the whole round trip.

Each band is held as a record, in p order (`FrameSpec.records`, the
stack's own arrays): its nonzero extent [lo, hi) in grid bins, its
values there, its width w and its period m = q*w.  The engine below is
this module's, and the n-D frame (tiling.NdFrameSpec) runs on it; a 1D
band is a box of d = 1 axis factor.  One builder, `_box_chunks`, cuts
a family of boxes, each given as its d rows of factor records (the
bands in fold order), into chunks of whole boxes of a few thousand bins
(FoldChunk): the flat grid bins of their supports, the values there
and, formed in one loop over the axes,
the compact fold slot of each bin, read by reconstruction: the C-order
ravel of (j_s - lo_s) mod m over radices min(extent_s, m), never more
slots than bins, whatever q.  The chunks that analysis and synthesis
read also get a placement slot per bin (_place, from its flat bin): the
C-order ravel of (j_s - half) mod P, P = q*w, in the box's block of P^d
coefficients.
Both refuse a family whose blocks pass COEFF_CAP in all ("reduce q")
before any bin is placed (`chunks`), so every chunk they read fits.

Analysis folds f^ Phi at the placement with one add.at and runs one
inverse FFT per group of bands of equal period (in p order the runs are
long, as width(|p|) is monotone); synthesis runs the forward FFT and
adds it, read at the placement, into the grid; reconstruction takes
D f^ and folds the alias part at the compact fold, with no FFT.
Synthesis adds the bands in fold order whatever the order of its dict.
H0 has one body for both frames (`_BoxFrame.sum_of_squares`), as the
bands are separable (Ron & Shen, Duke Math. J. 89, 1997): one bincount
adds each band's last-factor squares into the slot of its other factors,
in fold order, then each other axis, last first, is contracted in record
order, sum_a F_a^2 (x) acc[a] over the extent of a.  In 1D there is one
slot, so the bands' squares add in p order, as the stack's own sum does.
Both specs (FrameSpec, tiling.NdFrameSpec: _BoxFrame) hold, each built
on first use, their records, the core records (below), the round trip's
split with their own H0 (`split`: D, 8 B per grid point, and 32 B per
alias bin), built on the first reconstruction from core chunks that are
not kept and never placed, and the placed core chunks in band order,
built on the first analysis or synthesis.  The lattice, axis, tiling and
corona caps bound what a spec holds, and each holder of arrays (records,
chunk, split) makes them read-only as it is built (window._ReadOnly).
One ConjugateFilter serves both frames: a spec's dual is its own,
refused where H0 has a gap.

A Gaussian never vanishes, so its records run out to the window's zero
radius, 15.5 bins from each lattice point, though past about 4.2 bins a
sample is below TAU = 2^-80 of the peak and moves no O(1) sum by a
rounding.  So analysis, synthesis, reconstruction, the held split, the
Walnut sum and the eigen kernel read the core records (`core`): each
extent cut to the span of its samples of magnitude >= TAU times the
family's largest, over the records' own values (compact windows keep
their extents).  H0, the certified bounds, admissibility and the dual
residual read the full records, as a certificate must see the tails.
On dense input the folds and the Walnut sum give the same bits on
either (measured over the test matrices), not by construction: an input
living only on dropped bins differs by dropped terms, each at most TAU *
peak * |f(u)| times its other factors, and the eigenbounds move by at
most ||K_full - K_core||_2 (Weyl) plus round-off.

A band's shifted product Phi_p(u - s) Phi_p(u) is nonzero only where
the extent meets its shift, and a box's shift is the product of its axis
shifts (Walnut, JMAA 165, 1992).  One builder (_walnut_kvecs) lists the
kvecs of any family of boxes given as factor rows, a shift and overlap
per axis from each factor's shift count, in row order, C order over the
axes and m ascending (a 1D band is a box of one axis); one stream
(_walnut_stream) yields their terms Phi(v) Phi(u), u - v the kvec's
shift, a chunk of whole kvecs at a time.  `_walnut_sum` adds f^(v) times
them over the fold rows of the core records; `walnut_bounds` takes each
factor's shift maxima from the stream of the full factors alone, then
adds the tail terms box by box; `frame_bounds_eigen` assembles the 1D or
n-D operator from its Walnut kernel on the core records

    S[u, v] = q^d * sum over (box, kvec) of shift u - v of Phi(u) Phi(v),

which agrees with the analysis + synthesis operator to round-off.  One
body (_element) forms the elements of both frames.  All
other outputs equal the dense per-band (or per-shift) evaluation bit for
bit, because every bin receives the same additions in the same order:
folds in ascending frequency, synthesis in fold order,
reconstruction D f^ first and then the alias folds in band order, Walnut
terms in (box, kvec) order, h_tail band by band and H0 axis by axis (p
order in 1D; in n-D a dense sum in that order, round-off equal to a sum
box by box); each shift's maximum comes from one reduceat.
Bins outside an extent would only receive +0.0, which changes no sum.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .partition import AlphaPartition
from .spectral import FrequencyGrid, SpectralSignal, TimeSamples, _adopt, _rel_norm, to_spectrum
from .window import COEFF_CAP, Window, WindowStack, _ReadOnly, _runs, _spans, build_stack

__all__ = [
    "FrameSpec",
    "make_frame_spec",
    "FrameCoefficients",
    "frame_element",
    "analyze",
    "synthesize",
    "frame_operator_apply",
    "walnut_apply",
    "WalnutBoundReport",
    "walnut_bounds",
    "FrameBounds",
    "frame_bounds_eigen",
    "ConjugateFilter",
    "conjugate_filter",
    "FrameGapError",
    "reconstruct",
]

EIGEN_SIZE_CAP = 1024
H0_FLOOR = 1e-14
# Every operator forms this many bins or terms at a time (rounded to
# whole bands or shifts): its temporaries stay small and cache-resident
# on any grid, and never depend on how the allocator serves large blocks.
_TERM_CHUNK = 1 << 12
# A record sample below TAU times its family's largest value moves no O(1)
# sum by a rounding: the folds read the records trimmed to the rest.
TAU = 2.0 ** -80


class FrameGapError(ValueError):
    """The stack leaves a spectral hole; no conjugate filter exists."""


def _chunks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Nonempty runs [a, b) of consecutive items, covering them all, that
    hold about _TERM_CHUNK elements each; an item is never split."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_TERM_CHUNK, total, _TERM_CHUNK), side="right")
    # an item longer than a chunk yields repeated cuts, and a first item
    # longer than a chunk a cut at 0
    cuts = sorted(set(cuts.tolist()) - {0, lengths.size})
    return list(zip([0, *cuts], [*cuts, lengths.size])) if lengths.size else []


def _fold(x: np.ndarray, fold: np.ndarray, size: int) -> np.ndarray:
    """Complex x summed into size slots, x[i] into slot fold[i]: one
    add.at adds each slot's terms in the order of x, from +0.0."""
    out = np.zeros(size, dtype=np.complex128)
    np.add.at(out, fold, x)
    return out


@dataclass(frozen=True)
class FoldChunk(_ReadOnly):
    """Consecutive bands (boxes) of a family, bands, whose supports hold
    about _TERM_CHUNK bins, lengths[i] of them in the i-th band: their
    flat grid bins, band after band, the values there and each bin's slot
    in the compact fold of size slots (fold); runs are the maximal runs
    (a, b, w, P) of bands of equal width w, P = q*w.  A chunk that
    analysis or synthesis reads also holds each bin's slot in the blocks
    of P^d coefficient slots a band (place, _BoxFrame.chunks).
    """

    bands: slice
    runs: tuple[tuple[int, int, int, int], ...]
    lengths: np.ndarray = field(repr=False)
    bins: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    fold: np.ndarray = field(repr=False)
    size: int
    place: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class BandRecords(_ReadOnly):
    """One record per band of a family, in the order ps: its nonzero
    extent [lo, hi) in grid bins, width w, period m = q*w and values, band
    b holding values[u + offset[b]] at bin u of its extent (half: bin u is
    frequency u - half).  Full records lie end to end; a core (_core) views
    their values and offsets, values off its extents too: walnut_bounds'
    diagonal reduceat and sum_of_squares' contiguous path read full ones.
    """

    ps: tuple
    lo: np.ndarray
    hi: np.ndarray
    offset: np.ndarray
    values: np.ndarray
    w: np.ndarray
    m: np.ndarray
    half: int


def _core(g: BandRecords) -> BandRecords:
    """The records, each extent cut to the span of its samples of magnitude
    >= TAU times the family's largest (_spans), over g's values and offsets."""
    mag = np.abs(g.values)
    lo, hi = _spans(mag >= TAU * np.max(mag, initial=0.0), g.lo, g.hi - g.lo)
    return replace(g, lo=lo, hi=hi)


def _box_chunks(g: BandRecords, rows: np.ndarray, n: int, q: int) -> Iterator[FoldChunk]:
    """The fold chunks of a family of boxes on the grid of n^d bins, in
    order, unplaced: box i is the product of the factor records rows[i] of
    g, one per axis (d = rows.shape[1]; a 1D band is one row).  A box has
    the width w of its first factor, period P = q*w, and compact radix
    min(extent, m) along an axis of factor period m."""
    d = rows.shape[1]
    first = rows[:, 0]
    w, m = g.w[first], g.m[first]
    lo = g.lo[rows]
    length, offset = g.hi[rows] - lo, g.offset[rows].T
    radix = np.minimum(length, m[:, None])
    size, slots = length.prod(axis=1), radix.prod(axis=1)
    lo, length, radix = lo.T, length.T, radix.T  # one row per axis

    def cut():
        for a, b in _chunks(size):
            owner = np.arange(a, b)
            for s in range(d):  # C order: the last axis varies fastest
                count = length[s][owner]
                owner = np.repeat(owner, count)
                # each bin's offset into its extent
                r = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
                u = lo[s][owner] + r
                if s == 0:
                    bins, fold = u, r % m[owner]
                else:
                    bins = np.repeat(bins, count) * n + u
                    fold = np.repeat(fold, count) * radix[s][owner] + r % m[owner]
                # (v0 v1) v2, as reduce(np.multiply.outer) associates
                v = g.values[u + offset[s][owner]]
                values = v if s == 0 else np.repeat(values, count) * v
            lengths = size[a:b]
            fold += np.repeat(np.cumsum(slots[a:b]) - slots[a:b], lengths)
            cuts = (a + np.flatnonzero(np.diff(w[a:b])) + 1).tolist()
            runs = tuple((s, e, int(w[s]), q * int(w[s])) for s, e in zip([a, *cuts], [*cuts, b]))
            yield FoldChunk(slice(a, b), runs, lengths, bins, values, fold, int(slots[a:b].sum()))

    return cut()


def _place(c: FoldChunk, n: int, d: int) -> np.ndarray:
    """Each bin's slot in the blocks of P^d coefficient slots a band of the
    chunk, in band order: its band's block base plus the C-order ravel of
    (u_s - half) mod P over the axes of its flat bin u."""
    period = np.repeat([m for _, _, _, m in c.runs], [b - a for a, b, _, _ in c.runs])
    block = period ** d
    base, period = np.repeat(np.cumsum(block) - block, c.lengths), np.repeat(period, c.lengths)
    ravel = 0
    for u in np.unravel_index(c.bins, (n,) * d):  # C order: the last axis varies fastest
        ravel = ravel * period + (u - n // 2) % period
    return base + ravel


def _groups(c: FoldChunk, d: int):
    """Yield the chunk's runs of equal period cut into groups of whole
    bands of at most _TERM_CHUNK coefficients (P^d per band), or one band,
    as (a, b, w, P, base): bands a .. b - 1, whose coefficient slots in
    the chunk start at base."""
    base = 0
    for a, b, w, m in c.runs:
        step = max(1, _TERM_CHUNK // m ** d)
        for s in range(a, b, step):
            e = min(s + step, b)
            yield s, e, w, m, base
            base += (e - s) * m ** d


def _dft(x: np.ndarray, d: int, transform) -> np.ndarray:
    """transform (np.fft.fft or ifft) over axes d .. 1 of x, the last one
    first, as numpy's n-D transforms apply it (bit for bit)."""
    for axis in range(d, 0, -1):
        x = transform(x, axis=axis)
    return x


def _fold_runs(x: np.ndarray, c: FoldChunk, d: int, root) -> list[np.ndarray]:
    """The coefficient blocks of a chunk's bands, in band order: x folded
    at the placement into P^d slots per band, then P^d ifftn(block) /
    root(w), one inverse DFT per group of bands of equal period."""
    groups = list(_groups(c, d))
    folded = _fold(x, c.place, sum((b - a) * m ** d for a, b, _, m, _ in groups))
    blocks: list[np.ndarray] = []
    for a, b, w, m, base in groups:
        run = folded[base:base + (b - a) * m ** d].reshape((b - a,) + (m,) * d)
        run = _dft(run, d, np.fft.ifft)
        run *= m ** d  # in place: the same roundings as m^d * run / root(w)
        run /= root(w)
        blocks.extend(run)
    return blocks


def _spread_runs(acc: np.ndarray, coeffs: list[np.ndarray], keys: tuple, c: FoldChunk, d: int,
                 root) -> None:
    """Add a chunk's bands, keys, weighted by coeffs (one block per band),
    into acc: one DFT per group of bands of equal period, read at each
    bin's placement, times values / root(w).  A group holding a block
    that is not the P^d coefficients of its band is refused, naming the
    first such band, before it is spread."""
    groups, first = list(_groups(c, d)), c.bands.start
    spread = np.empty(sum((b - a) * m ** d for a, b, _, m, _ in groups), dtype=np.complex128)
    for a, b, _, m, base in groups:
        blocks = coeffs[a - first:b - first]
        try:
            run = np.array(blocks)
        except ValueError:  # blocks of different shapes
            run = None
        if run is None or run.shape != (b - a,) + (m,) * d:
            i = next(i for i, x in enumerate(blocks) if np.shape(x) != (m,) * d)
            raise ValueError(f"coefficients for band {keys[a - first + i]} have shape {np.shape(blocks[i])}, "
                             f"the band takes {(m,) * d}")
        run = _dft(run, d, np.fft.fft)
        spread[base:base + run.size] = run.ravel()
    roots = [root(w) for _, _, w, _ in c.runs]
    roots = np.repeat(np.repeat(roots, [b - a for a, b, _, _ in c.runs]), c.lengths)
    np.add.at(acc, c.bins, c.values * spread[c.place] / roots)


def _on_grid(n: int, sup, values: np.ndarray) -> np.ndarray:
    """values held on the support sup (grid slices), zero-filled to the grid."""
    out = np.zeros((n,) * values.ndim)
    out[sup] = values
    return out


class _BoxFrame:
    """What FrameSpec and tiling.NdFrameSpec share: a band (box) is the
    product of d factor records on a grid of n bins per axis.  A spec
    gives records, q, d, n, factor_rows(key) and its bands in fold order
    (_fold_keys); everything else, H0 included, is shared.
    """

    @property
    def nu(self) -> float:
        return 1.0 / self.q

    @property
    def walnut_k_max(self) -> int:
        """The tail bound's default shift count, ceil(n / 2q)."""
        return math.ceil(self.n / (2 * self.q))

    def _root(self, w: int) -> float:
        """The coefficient root sqrt(w^d) of a band of width w."""
        return np.sqrt(float(w) ** self.d)

    @cached_property
    def h0(self) -> np.ndarray:
        """sum_of_squares(), read-only; built on first use."""
        h0 = self.sum_of_squares()
        h0.flags.writeable = False
        return h0

    @cached_property
    def core(self) -> BandRecords:
        """The core records (_core), read by analysis, synthesis,
        reconstruction, the Walnut sum and the eigen kernel; built on first use."""
        return _core(self.records)

    @cached_property
    def _factors(self) -> list[tuple[slice, np.ndarray]]:
        """Per record, (its extent as a grid slice, its values there)."""
        g = self.records
        return [(slice(lo, hi), g.values[lo + off:hi + off])
                for lo, hi, off in zip(g.lo.tolist(), g.hi.tolist(), g.offset.tolist())]

    def box_stack(self, key) -> np.ndarray:
        """The band's stack on the whole grid, built on demand: the outer
        product of its factors on their extents."""
        sup, values = zip(*(self._factors[r] for r in self.factor_rows(key)))
        return _on_grid(self.n, sup, reduce(np.multiply.outer, values))

    def sum_of_squares(self) -> np.ndarray:
        """H0 = sum over the bands of Phi^2 on the grid, axis by axis
        (module docstring).  A band with an empty factor adds only +0.0 and
        is left out; the slots are sorted, so each contraction adds its
        factors in record order."""
        g, n, d, radix = self.records, self.n, self.d, len(self.records.ps)
        length = g.hi - g.lo
        rows = self._fold_rows[(length[self._fold_rows] > 0).all(axis=1)]
        if not len(rows):
            return np.zeros((n,) * d)
        # a band's slot: its other factors' records as the digits of a key
        # (radix^(d - 1) stays far inside int64: d <= 3, and n-D has at most
        # 249 records)
        keys, slot = np.unique((rows[:, :-1] * radix ** np.arange(d - 2, -1, -1)).sum(axis=1),
                               return_inverse=True)
        last = rows[:, -1]
        size = length[last]
        start = g.lo[last] + g.offset[last]
        if size.sum() == g.values.size and (start == np.cumsum(size) - size).all():
            square = g.values * g.values  # the gather would read every value in order (1D)
        else:
            square = g.values[_runs(start, size)]
            square *= square
        acc = np.bincount(_runs(slot * n + g.lo[last], size), square, len(keys) * n)
        for _ in range(d - 1):  # the next axis, last first: sum_a F_a^2 (x) acc[a]
            acc = acc.reshape(len(keys), -1)
            keys, factor = np.divmod(keys, radix)
            keys, slot = np.unique(keys, return_inverse=True)
            out = np.zeros((len(keys), n, acc.shape[1]))
            for a, k, row in zip(factor.tolist(), slot.tolist(), acc):
                sup, f = self._factors[a]
                out[k, sup] += np.multiply.outer(f * f, row)
            acc = out
        return acc.reshape((n,) * d)

    @cached_property
    def _fold_rows(self) -> np.ndarray:
        """The factor rows of the bands in fold order, one row of d per band."""
        return np.array([self.factor_rows(key) for key in self._fold_keys], np.int64).reshape(-1, self.d)

    def _fold_chunks(self, g: BandRecords | None = None):
        """_box_chunks of the bands in fold order, on the core records by
        default, built as they are read."""
        return _box_chunks(self.core if g is None else g, self._fold_rows, self.n, self.q)

    @cached_property
    def chunks(self) -> tuple[FoldChunk, ...]:
        """The _fold_chunks, each with its placement (_place), as analysis
        and synthesis read them, held; built on the first analysis or
        synthesis, and refused, before any bin is placed, where their
        blocks of P^d coefficient slots a band pass COEFF_CAP in all."""
        chunks = tuple(self._fold_chunks())
        total = sum((b - a) * m ** self.d for c in chunks for a, b, _, m in c.runs)
        if total > COEFF_CAP:
            raise ValueError(f"coefficient count {total} exceeds the cap {COEFF_CAP}; reduce q")
        return tuple(replace(c, place=_place(c, self.n, self.d)) for c in chunks)

    @cached_property
    def split(self) -> RoundTripSplit:
        """The round trip's split (_split) with the spec's own H0, read-only; built on the first
        reconstruction, of chunks not kept, after the gap check (_check_gap): a gapped spec holds none."""
        _check_gap(self.h0, self.n // 2)
        return _split(self, self._fold_chunks(), self.h0)


def _analyze(spec: _BoxFrame, fhat: np.ndarray) -> dict:
    """<f, element> for every band of the spec, in fold order, f^ flat on
    the grid: fold f^ Phi at the placement a chunk at a time, then one
    inverse DFT per run of equal period."""
    blocks = (block for c in spec.chunks
              for block in _fold_runs(fhat[c.bins] * c.values, c, spec.d, spec._root))
    return dict(zip(spec._fold_keys, blocks))


def _synthesize(spec: _BoxFrame, coeffs: dict) -> np.ndarray:
    """sum of coefficient-weighted elements on the flat grid, read on the
    spec's held chunks: bands add in fold order whatever the order of
    coeffs, and a band coeffs lacks spreads zeros, whose +0.0 moves no bit
    (module docstring).  A key that is no band of the spec, and a block
    that is not the band's P^d coefficients, are refused by name."""
    keys, found = spec._fold_keys, 0
    acc = np.zeros(spec.n ** spec.d, dtype=np.complex128)
    for c in spec.chunks:
        blocks = list(map(coeffs.get, keys[c.bands]))
        here = len([x for x in blocks if x is not None])
        if here < len(blocks):
            periods = [P for a, b, _, P in c.runs for _ in range(a, b)]
            blocks = [np.zeros((P,) * spec.d) if x is None else x for x, P in zip(blocks, periods)]
        found += here
        _spread_runs(acc, blocks, keys[c.bands], c, spec.d, spec._root)
    if found < len(coeffs):
        raise ValueError(f"coefficients for {next(iter(coeffs.keys() - set(keys)))}, no band of the spec")
    return acc


@dataclass(frozen=True)
class FrameSpec(_BoxFrame):
    """Frozen description of one frame instance: q and its window stack;
    its bands are the boxes of the shared engine at d = 1 (_BoxFrame)."""

    q: int
    stack: WindowStack

    d = 1

    @property
    def grid(self) -> FrequencyGrid:
        return self.stack.grid

    @property
    def partition(self) -> AlphaPartition:
        return self.stack.partition

    @property
    def n(self) -> int:
        return self.grid.size

    @property
    def p_range(self) -> list[int]:
        return self.stack.p_list

    def width(self, p: int) -> int:
        return self.partition.width(p)

    def k_count(self, p: int) -> int:
        return self.q * self.width(p)

    @cached_property
    def records(self) -> BandRecords:
        """The stack's own records, in p order, with each band's width and
        period, read by H0 and the bounds; built on first use."""
        st = self.stack
        w = self.partition.widths[np.abs(st.ps)]
        return BandRecords(st.ps, st.lo, st.hi, st.offset, st.values, w, self.q * w, self.grid.half)

    def factor_rows(self, p: int) -> list[int]:
        return [self.stack._where[p]]

    @cached_property
    def _fold_rows(self) -> np.ndarray:
        return np.arange(len(self.records.ps))[:, None]  # the records are in p order

    @property
    def _fold_keys(self) -> tuple[int, ...]:
        return self.records.ps


def make_frame_spec(window: Window, mu: float, q: int, alpha, n: int) -> FrameSpec:
    """Build the stack and bookkeeping for a frame on a grid of size n."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"q must be a positive integer, got {q!r}")
    stack = build_stack(window, mu, alpha, n)
    m_max = int(q) * stack.partition.width(stack.ps[-1])  # the band farthest out is widest
    if m_max >= 1 << 63:
        raise ValueError(f"q = {q} makes the period q*w = {m_max} overflow int64")
    return FrameSpec(int(q), stack)


@dataclass
class FrameCoefficients:
    """Per-band coefficient arrays; data[p][k] = <f, element_{p,k}>."""

    spec: FrameSpec = field(repr=False)
    data: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    def __getitem__(self, key: tuple[int, int]) -> complex:
        p, k = key
        return complex(self.data[p][k])

    def band(self, p: int) -> np.ndarray:
        return self.data[p]

    def energy(self) -> float:
        return float(sum(np.sum(np.abs(c) ** 2) for c in self.data.values()))


def _as_spectrum(spec: FrameSpec, f) -> np.ndarray:
    if isinstance(f, TimeSamples):
        f = to_spectrum(f)
    if not isinstance(f, SpectralSignal):
        raise TypeError(f"expected TimeSamples or SpectralSignal, got {type(f)!r}")
    if f.grid != spec.grid:
        raise ValueError(f"grid mismatch: signal {f.grid.size}, spec {spec.grid.size}")
    return f.coeffs


def frame_element(spec: FrameSpec, p: int, k: int) -> SpectralSignal:
    """Spectral coefficients of one frame element."""
    if p not in spec.stack.ps:
        raise ValueError(f"band {p} not in frame range {spec.p_range[0]}..{spec.p_range[-1]}")
    m = spec.k_count(p)
    if not 0 <= k < m:
        raise ValueError(f"slot k = {k} outside 0..{m - 1}")
    return SpectralSignal(spec.grid, _element(spec, p, (k,)))


def _element(spec: _BoxFrame, key, kvec) -> np.ndarray:
    """The element of band (box) key at slot kvec, one integer slot per
    axis, on the whole grid: the outer product of one phase
    exp(-2 pi i j k / (q w)) per axis, times the band's stack, over
    _root(w)."""
    for k in kvec:
        if int(k) != k:
            raise ValueError(f"slot {k} is not an integer")
    w = int(spec.records.w[spec.factor_rows(key)[0]])
    j = np.arange(-(spec.n // 2), spec.n // 2)
    axes = [np.exp(-2j * np.pi * j * k / (spec.q * w)) for k in kvec]
    return reduce(np.multiply.outer, axes) * spec.box_stack(key) / spec._root(w)


def analyze(spec: FrameSpec, f) -> FrameCoefficients:
    """<f, element_{p,k}> for every band, in p order (_analyze)."""
    return FrameCoefficients(spec, _analyze(spec, _as_spectrum(spec, f)))


def synthesize(spec: FrameSpec, coeffs: FrameCoefficients) -> SpectralSignal:
    """sum_k c_k element_k, bands added in p order whatever the order of
    coeffs.data (_synthesize)."""
    return _adopt(SpectralSignal, spec.grid, _synthesize(spec, coeffs.data))


def frame_operator_apply(spec: FrameSpec, f) -> SpectralSignal:
    """S f through analysis + synthesis."""
    return synthesize(spec, analyze(spec, f))


def _walnut_kvecs(g: BandRecords, rows: np.ndarray, k_max=None, first=None) -> list[np.ndarray]:
    """The kvecs of a family of boxes that can make Phi(u - s) Phi(u)
    nonzero, box i the product of the factor records rows[i] of g: one
    shift s = m q w of its factor per axis, first <= m <= last (first =
    -last by default), last the largest |m| that reaches across the
    extent (-1 for an empty one), at most k_max, so |s| < n.  k_max is
    clamped at n, as no shift past the grid is kept either way: a k_max
    past int64 is taken too.  A k_max that is no integer >= 0 is refused.

    Returns (record, shift, lo, length) per axis, box-major, C order over
    the axes and m ascending within a factor: on each axis the product can
    be nonzero only for lo <= u < lo + length.
    """
    if k_max is not None and not (isinstance(k_max, (int, np.integer)) and k_max >= 0):
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    step = g.m
    extent = g.hi - g.lo
    last = np.where(extent == 0, -1, (extent - 1) // step)
    if k_max is not None:
        last = np.minimum(last, min(k_max, 2 * g.half))  # n = 2 half
    first = -last if first is None else np.full_like(last, first)
    count = np.maximum(last - first + 1, 0)
    kvecs = []
    for s in range(rows.shape[1]):  # C order: the last axis varies fastest
        if s:
            rows = np.repeat(rows, c, axis=0)  # one row per kvec so far
        r = rows[:, s]
        c = count[r]
        rec = np.repeat(r, c)
        shift = step[rec] * _runs(first[r], c)
        kvecs = [np.repeat(x, c) for x in kvecs] + [
            rec, shift, g.lo[rec] + np.maximum(shift, 0), np.maximum(extent[rec] - np.abs(shift), 0)]
    return kvecs


def _walnut_stream(g: BandRecords, kvecs: list[np.ndarray], n: int):
    """Yield every Walnut term Phi(v) Phi(u), u - v = s, of a family of
    boxes on the flat grid of n^d bins, a chunk of whole (box, kvec)s of
    about _TERM_CHUNK terms at a time: (u, v, Phi(v), Phi(u), terms per
    kvec).  kvecs are the family's (_walnut_kvecs), d = len(kvecs) // 4;
    each chunk is expanded axis by axis, as _box_chunks expands bins,
    Phi(v) and Phi(u) as C-order products."""
    d = len(kvecs) // 4
    sizes = reduce(np.multiply, kvecs[3::4])
    for a, b in _chunks(sizes):
        later = [x[a:b] for x in kvecs]
        for s in range(d):
            rec, step, start, size, *later = later
            later = [np.repeat(x, size) for x in later]
            u = _runs(start, size)
            v = u - np.repeat(step, size)
            r = np.repeat(rec, size)
            gv, pv = g.values[v + g.offset[r]], g.values[u + g.offset[r]]
            if s == 0:
                dst, src, phi, out = u, v, gv, pv
            else:
                dst, src = np.repeat(dst, size) * n + u, np.repeat(src, size) * n + v
                phi, out = np.repeat(phi, size) * gv, np.repeat(out, size) * pv
        yield dst, src, phi, out, sizes[a:b]


def _walnut_sum(spec: _BoxFrame, fhat: np.ndarray) -> np.ndarray:
    """q^d times the sum of every term (f^ Phi)(u - s) Phi(u), f^ flat on
    the grid, over the spec's bands (boxes) and their kvecs
    (_walnut_stream), on the core records, as the folds read them.  One
    add.at per chunk adds each bin's terms in (box, kvec) order, as a
    dense loop would."""
    g = spec.core
    acc = np.zeros(spec.n ** spec.d, dtype=np.complex128)
    for u, v, phi, out, _ in _walnut_stream(g, _walnut_kvecs(g, spec._fold_rows), spec.n):
        np.add.at(acc, u, fhat[v] * phi * out)
    acc *= spec.q ** spec.d
    return acc


def walnut_apply(spec: FrameSpec, f) -> SpectralSignal:
    """Direct evaluation of the shift-sum representation of S f: every
    shift that can touch the grid, so it equals frame_operator_apply up to
    round-off; shifted content leaving the grid is dropped.  The terms add
    in (p, m) order (_walnut_sum)."""
    return _adopt(SpectralSignal, spec.grid, _walnut_sum(spec, _as_spectrum(spec, f)))


@dataclass(frozen=True)
class WalnutBoundReport:
    """Certified frame-bound estimates from the shift-sum representation
    of a frame on d axes: (H0 extremes -+ h_tail) / nu^d."""

    h0_inf: float
    h0_sup: float
    h_tail: float
    nu: float
    k_max: int
    d: int = 1

    @property
    def lower(self) -> float:
        return max(0.0, (self.h0_inf - self.h_tail) / self.nu ** self.d)

    @property
    def upper(self) -> float:
        return (self.h0_sup + self.h_tail) / self.nu ** self.d


def walnut_bounds(spec: _BoxFrame, k_max: int | None = None) -> WalnutBoundReport:
    """Bound the operator of a 1D or n-D frame by H0 extremes and the
    aliasing tail.

    k_max defaults to the spec's walnut_k_max; shifts whose products
    vanish identically are skipped either way, so enlarging k_max past the
    grid edge changes nothing.  With per-axis sups a_s(k) = sup_x
    F_s(x - k m) F_s(x), separability makes a box's tail
    sum_{k != 0} prod_s a_s(|k_s|) equal prod_s (a_s(0) + t_s) -
    prod_s a_s(0), t_s = 2 sum_{k >= 1} a_s(k) (a band's is its t).  Each
    factor's sups, each from one reduceat over the products of a shift
    (1 <= k <= k_max) on its overlap (_walnut_stream), add in k order; the
    product is expanded mask by mask, as the tails can sit far below one
    ulp of the diagonal, where the factored form cancels; the box terms
    add in (box, mask) order.
    """
    k_max = spec.walnut_k_max if k_max is None else k_max
    g, n = spec.records, spec.n
    kvecs = _walnut_kvecs(g, np.arange(len(g.ps))[:, None], k_max, first=1)  # lengths >= 1: s <= hi - 1 - lo
    maxima = np.concatenate([np.zeros(0)] + [np.maximum.reduceat(pv * gv, np.cumsum(sizes) - sizes)
                                            for _, _, gv, pv, sizes in _walnut_stream(g, kvecs, n)])
    # the sup over the grid also sees the zeros off a partial extent
    maxima = np.where((g.hi - g.lo)[kvecs[0]] < n, np.maximum(maxima, 0.0), maxima)
    tail = np.zeros(len(g.ps))
    np.add.at(tail, kvecs[0], maxima)  # each factor's in k order, from +0.0
    tail *= 2.0  # the sup is shift-sign symmetric; count both signs
    if spec.d > 1:  # a band (d = 1) has no diagonal term
        # max F^2 on the extent: F^2 = +0.0 off it, and an empty factor's
        # 0.0 diagonal and tail make its boxes add only +0.0
        square = np.append(g.values * g.values, 0.0)
        diag = np.where(g.hi > g.lo, np.maximum.reduceat(square, g.lo + g.offset), 0.0)
    rows, masks = spec._fold_rows, range(1, 1 << spec.d)
    # the (box, mask) terms, box-major, after a +0.0, added in order
    seq = np.zeros(1 + len(rows) * len(masks))
    terms = seq[1:].reshape(len(rows), len(masks))
    for i, mask in enumerate(masks):
        terms[:, i] = reduce(np.multiply, [(tail if mask >> s & 1 else diag)[rows[:, s]]
                                           for s in range(spec.d)])
    h_tail = float(np.add.accumulate(seq)[-1])
    h0 = spec.h0
    return WalnutBoundReport(float(h0.min()), float(h0.max()), h_tail, spec.nu, int(k_max), spec.d)


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    method: str


def frame_bounds_eigen(spec: _BoxFrame) -> FrameBounds:
    """Exact bounds of a 1D or n-D frame as extreme eigenvalues of the
    dense frame operator on the n^d grid points.

    The operator is assembled from its Walnut kernel, S[u, v] = q^d times
    the sum of Phi(u) Phi(v) over every (box, kvec) of shift u - v
    (_walnut_stream) of the core records, which agrees with the analysis +
    synthesis operator, on the same records, to round-off.  Grids of more
    than EIGEN_SIZE_CAP points are refused.
    """
    size = spec.n ** spec.d
    if size > EIGEN_SIZE_CAP:
        raise ValueError(f"dense eigenbounds capped at {EIGEN_SIZE_CAP} grid points, "
                         f"got n^d = {spec.n}^{spec.d} = {size}")
    g = spec.core
    mat = np.zeros(size * size)
    for u, v, gv, pv, _ in _walnut_stream(g, _walnut_kvecs(g, spec._fold_rows), spec.n):
        np.add.at(mat, u * size + v, pv * gv)
    mat = spec.q ** spec.d * mat.reshape(size, size)
    asym = float(np.max(np.abs(mat - mat.T)))
    scale = float(np.max(np.abs(mat))) or 1.0
    if asym > 1e-8 * scale:
        raise RuntimeError(f"frame operator failed the self-adjointness check: {asym:g}")
    eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    return FrameBounds(float(eigs[0]), float(eigs[-1]), "eigen")


def _duals(chunks, h0: np.ndarray, nu: float):
    """Yield (chunk, Omega = nu Phi / H0 at its bins) per chunk of a
    family, on the flat grid of h0."""
    for c in chunks:
        yield c, nu * c.values / h0[c.bins]


@dataclass(frozen=True)
class AliasChunk(_ReadOnly):
    """Whole compact-fold slots of two or more bins, of consecutive bands:
    their bins, band after band, each bin's slot among the size slots
    (fold, numbered from 0), q^d Phi (qphi) and Omega (dual) there."""

    bins: np.ndarray = field(repr=False)
    fold: np.ndarray = field(repr=False)
    size: int
    qphi: np.ndarray = field(repr=False)
    dual: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RoundTripSplit(_ReadOnly):
    """The round trip as a multiplier plus an aliasing fold: diagonal is
    D = q^d sum Phi Omega over every (band, bin) alone in its compact-fold
    slot, on the flat grid; alias holds the bins of every other slot."""

    diagonal: np.ndarray = field(repr=False)
    alias: tuple[AliasChunk, ...]


def _split(spec: _BoxFrame, chunks, h0: np.ndarray) -> RoundTripSplit:
    """Split the round trip of the spec's core chunks, in band order, with
    the dual of h0 (_duals): a bin alone in its slot folds only into
    itself, so it adds q^d Phi Omega to D, in band order; the bins of the
    other slots are regrouped, whole chunks at a time, into alias chunks
    of about _TERM_CHUNK bins."""
    q = spec.q ** spec.d
    diagonal = np.zeros(spec.n ** spec.d)
    alias, group, base = [], [], 0

    def flush():
        slot, bins, qphi, dual = (np.concatenate(x) for x in zip(*group))
        slots, fold = np.unique(slot, return_inverse=True)
        alias.append(AliasChunk(bins, fold, slots.size, qphi, dual))
        group.clear()

    for c, dual in _duals(chunks, h0.ravel(), spec.nu ** spec.d):
        qphi = q * c.values
        alone = np.bincount(c.fold, minlength=c.size)[c.fold] == 1
        np.add.at(diagonal, c.bins[alone], qphi[alone] * dual[alone])
        shared = ~alone
        if shared.any():  # slot numbers kept distinct across chunks
            group.append((base + c.fold[shared], c.bins[shared], qphi[shared], dual[shared]))
        base += c.size
        if sum(part[1].size for part in group) >= _TERM_CHUNK:
            flush()
    if group:
        flush()
    return RoundTripSplit(diagonal, tuple(alias))


@dataclass(frozen=True)
class ConjugateFilter:
    """The conjugate filter Omega = nu^d Phi / H0 of a 1D or n-D frame
    (FrameSpec or tiling.NdFrameSpec), the spec's own: none exists for a
    spec whose H0 reaches H0_FLOOR (_check_gap).  The round trip reads it
    through the spec's held split (_round_trip)."""

    spec: _BoxFrame = field(repr=False)

    def __post_init__(self) -> None:
        _check_gap(self.spec.h0, self.spec.n // 2)

    def partition_residual(self) -> float:
        """max |sum Omega Phi - nu^d| over the grid, zero to round-off by
        construction, on the full records (the tails the folds leave out
        included): the dual formed a chunk at a time, each bin adding its
        products in fold order, as H0 adds the bands."""
        spec, nu_d = self.spec, self.spec.nu ** self.spec.d
        chunks = spec._fold_chunks(spec.records)
        acc = np.zeros(spec.h0.size)
        for c, dual in _duals(chunks, spec.h0.ravel(), nu_d):
            np.add.at(acc, c.bins, dual * c.values)
        return float(np.max(np.abs(acc - nu_d)))


def _check_gap(h0: np.ndarray, half: int) -> None:
    """Raise FrameGapError if H0 (on a grid of any dimension, bin u at
    frequency u - half per axis) reaches H0_FLOOR; the message names the
    worst frequency, an integer in 1D and a tuple in n-D."""
    low = float(h0.min())
    if low <= H0_FLOOR:
        worst = tuple(int(u) - half for u in np.unravel_index(int(np.argmin(h0)), h0.shape))
        raise FrameGapError(
            f"stack sum of squares reaches {low:.3e} <= {H0_FLOOR:g} "
            f"(worst at frequency {worst[0] if h0.ndim == 1 else worst}); "
            "the system is not a frame on this grid"
        )


# the conjugate filter of a 1D or n-D frame, refused if H0 reaches H0_FLOOR
conjugate_filter = ConjugateFilter


def _round_trip(spec: _BoxFrame, fhat: np.ndarray) -> tuple[np.ndarray, float]:
    """Analyze f^ (flat on the grid) against the spec's conjugate family
    and synthesize with the primal one: sum q^d Phi fold(f^ Omega)[fold]
    over the core chunks, no coefficients formed, as the FFT pair cancels
    (module docstring), taken as D f^ plus one add.at per alias chunk, in
    band order (spec.split, built after the gap check).  Returns
    (reconstruction, relative l2 error), the two norms taken against one
    shared power of two where either passes the float range (_rel_norm)."""
    split = spec.split
    rec = split.diagonal * fhat
    for a in split.alias:
        np.add.at(rec, a.bins, a.qphi * _fold(fhat[a.bins] * a.dual, a.fold, a.size)[a.fold])
    return rec, _rel_norm(rec, fhat)


def reconstruct(spec: FrameSpec, f) -> tuple[SpectralSignal, float]:
    """Analyze against the spec's conjugate family, synthesize with the
    analysis one (_round_trip).  Returns (reconstruction, relative l2
    error against the input)."""
    fhat = _as_spectrum(spec, f)
    rec, rel_err = _round_trip(spec, fhat)
    return _adopt(SpectralSignal, spec.grid, rec), rel_err
