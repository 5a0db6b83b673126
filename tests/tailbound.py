"""Dense bounds on what the folds leave out by reading core records.

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
output's terms.  Every output here sums fewer than 128 terms, folds and
FFTs included, and each path rounds within 128 eps of that sum.
"""

import numpy as np

ROUND = 256 * np.finfo(float).eps


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
