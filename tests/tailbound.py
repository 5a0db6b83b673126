"""Dense bounds on what the folds and the Walnut sum leave out by reading core records.

A family of B bands (1D) or boxes (n-D) is given densely on a flat grid
of N bins: full[b] and core[b] are band b on the grid from the full and
the core records, slot[b] the fold slot of each bin (size[b] slots) and
root[b] the band's normalization.  Every sample the core drops is below
top: TAU times the family's largest value (for a box, TAU times the
largest factor value to the power d, as one of its factors is dropped).

An output of the full records minus the same output of the core records
is the sum of the dropped terms, each a product with a dropped sample,
so at most top |f(u)| times its other factors, plus the rounding of the
two sums: within ROUND times the sum of the absolute values of the
output's terms.  Every fold output here sums fewer than 128 terms, FFTs
included, and each path rounds within 128 eps of that sum.  A Walnut sum
of K terms at a bin on d axes rounds within (K + 2d) eps of it
(walnut_bound).
"""

import numpy as np

EPS = np.finfo(float).eps
ROUND = 256 * EPS


def dense_records(g, n: int) -> np.ndarray:
    """Each band of the frame1d BandRecords g on the whole grid of n bins."""
    out = np.zeros((len(g.ps), n))
    for b, (lo, hi, off) in enumerate(zip(g.lo.tolist(), g.hi.tolist(), g.offset.tolist())):
        out[b, lo:hi] = g.values[lo + off:hi + off]
    return out


def check_trim(full, core, top) -> None:
    """core is full on the bins it keeps, and every sample it drops is below top."""
    kept = core != 0
    assert np.array_equal(core[kept], full[kept])
    assert np.all(np.abs(full[~kept]) < top)


def analysis_bound(full, core, root, f, top) -> np.ndarray:
    """Per band, a bound on |core - full| for each of its coefficients
    sum_u f(u) Phi(u) e(u) / root (|e| = 1): top sum |f| over the dropped
    bins, plus ROUND sum |Phi f|, over root."""
    dropped = (full != core) * np.abs(f)
    return (top * dropped.sum(axis=1) + ROUND * np.abs(full * f).sum(axis=1)) / root


def synthesis_bound(full, core, root, coeffs, top) -> np.ndarray:
    """Per bin j, a bound on |core - full| of sum_b Phi_b(j) fft(c_b)[slot] /
    root: |fft(c_b)| <= ||c_b||_1 times top at the bands that drop j, plus
    ROUND |Phi_b(j)|."""
    l1 = np.array([np.abs(c).sum() for c in coeffs]) / root
    return ((top * (full != core) + ROUND * np.abs(full)) * l1[:, None]).sum(axis=0)


def _fold_at(x, slot, size) -> np.ndarray:
    """Per band, x summed over each slot and read back at every bin."""
    return np.array([np.bincount(s, v, m)[s] for s, v, m in zip(slot, x, size)])


def reconstruct_bound(full, core, slot, size, f, h0, top) -> np.ndarray:
    """Per bin j, a bound on |core - full| of sum_b sum_{u ~ j} Phi_b(j)
    Phi_b(u) f(u) / H0(u) (q^d nu^d = 1; u ~ j: u in j's slot of band b).
    A pair with j or u dropped adds at most top peak |f(u)| / H0(u), peak
    the largest |Phi|; the rest rounds within ROUND of the absolute terms."""
    weight = np.abs(f) / h0
    ext, kept = full != 0, core != 0
    pairs = ext * _fold_at(ext * weight, slot, size) - kept * _fold_at(kept * weight, slot, size)
    terms = np.abs(full) * _fold_at(np.abs(full) * weight, slot, size)
    return (top * np.max(np.abs(full)) * pairs + ROUND * terms).sum(axis=0)


def shift_pairs(period, n: int, d: int) -> np.ndarray:
    """Per band (box) of period P, the (u, v) pairs of the flat grid of n^d
    bins whose difference is a multiple of P on every axis: the pairs its
    Walnut terms Phi(u) Phi(v) f(v) join, whatever the shift count."""
    axes = np.indices((n,) * d).reshape(d, -1)  # each flat bin's coordinates
    diff = axes[:, :, None] - axes[:, None, :]
    return np.array([np.all(diff % m == 0, axis=0) for m in period])


def walnut_kernel(bands, pairs, scale) -> np.ndarray:
    """scale times sum_b Phi_b(u) Phi_b(v) over the pairs of band b."""
    return scale * sum(pb * np.multiply.outer(b, b) for b, pb in zip(bands, pairs))


def walnut_bound(full, core, pairs, f, top, d) -> np.ndarray:
    """Per bin u, a bound on |core - full| of the Walnut sum
    sum_b Phi_b(u) sum_v Phi_b(v) f(v) over the pairs of band b (before its
    factor q^d) on d axes.  A term of the full records the core lacks joins
    a dropped sample, below top, with one of at most peak, the largest
    |Phi|: it is at most top peak |f(v)|.  Either path forms each of the K
    terms at u from 2d factors, adds them and scales by q^d: K + 2d
    roundings, so its real and imaginary parts each fall within (K + 2d) u
    of their absolute sum (u = eps / 2), and the path within (K + 2d) eps."""
    peak = np.max(np.abs(full))
    lost, terms, count = (np.zeros(full.shape[1]) for _ in range(3))
    for fb, cb, pb in zip(full, core, pairs):
        joined = pb & np.multiply.outer(fb != 0, fb != 0)
        lost += (joined & ~np.multiply.outer(cb != 0, cb != 0)) @ np.abs(f)
        terms += np.abs(fb) * (pb @ np.abs(fb * f))
        count += joined.sum(axis=1)
    return top * peak * lost + 2 * (count.max() + 2 * d) * EPS * terms


def kernel_roundoff(bands, pairs, scale, d) -> float:
    """A bound on how far eigvalsh's extreme eigenvalues of the assembled
    Walnut kernel on d axes lie from those of the exact one: each entry's
    K terms of 2d factors added, scaled by q^d and symmetrized, within
    (K + 2d + 1) u of their absolute sum, a majorant whose 2-norm bounds
    the error's; plus eigvalsh's backward error, taken as N eps times the
    kernel's 2-norm on the N grid points."""
    kernel = walnut_kernel(np.abs(bands), pairs, scale)
    count = sum(pb & np.multiply.outer(b != 0, b != 0) for b, pb in zip(bands, pairs))
    assembly = (count.max() + 2 * d + 1) * EPS * kernel
    return float(np.linalg.norm(assembly, 2) + kernel.shape[0] * EPS * np.linalg.norm(kernel, 2))
