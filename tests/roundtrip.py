"""Round-trip oracles shared by the 1D and n-D tests.

A family is given by its core fold chunks (frame1d.FoldChunk, in band
order) on a flat grid; h0 is the flat H0 its dual divides by, nu = nu^d
and q = q^d.  The dual Omega = nu Phi / H0 is formed on every call and
each fold taken by one bincount per part.
"""

import dataclasses

import numpy as np


def _dual(c, h0, nu):
    return nu * c.values / h0[c.bins]


def _fold(x, c):
    folded = np.empty(c.size, dtype=np.complex128)
    folded.real = np.bincount(c.fold, x.real, c.size)
    folded.imag = np.bincount(c.fold, x.imag, c.size)
    return folded


def per_call_reconstruct(fhat, h0, chunks, nu, q):
    """The round trip in its documented order: D, the sum of q Phi Omega
    over every (band, bin) alone in its compact-fold slot, chunk by chunk
    in band order, times f^; then chunk by chunk q Phi fold(f^ Omega) on
    the bins of the other slots."""
    chunks = list(chunks)
    diagonal = np.zeros(fhat.size)
    for c in chunks:
        alone = np.bincount(c.fold, minlength=c.size)[c.fold] == 1
        np.add.at(diagonal, c.bins[alone], (q * c.values * _dual(c, h0, nu))[alone])
    acc = diagonal * fhat
    for c in chunks:
        shared = np.bincount(c.fold, minlength=c.size)[c.fold] > 1
        folded = _fold(np.where(shared, fhat[c.bins] * _dual(c, h0, nu), 0.0), c)
        np.add.at(acc, c.bins[shared], (q * c.values * folded[c.fold])[shared])
    return acc


def fold_order_reconstruct(fhat, h0, chunks, nu, q):
    """The round trip with every bin through the compact fold, chunk by
    chunk: q Phi fold(f^ Omega)[fold], single-bin slots included."""
    acc = np.zeros(fhat.size, dtype=np.complex128)
    for c in chunks:
        np.add.at(acc, c.bins, q * c.values * _fold(fhat[c.bins] * _dual(c, h0, nu), c)[c.fold])
    return acc


def check_split(split, chunks, q):
    """Every core (band, bin) of the chunks lands in exactly one of D and
    the alias part: D is nonzero exactly on the bins alone in their slot,
    and the alias chunks hold the bins of every other slot with their
    q Phi, in band order, each slot whole in one chunk and numbered from 0
    there.  Every array of the split is read-only."""
    bins, qphi, slot, alone, base = [], [], [], [], 0
    for c in chunks:
        bins.append(c.bins)
        qphi.append(q * c.values)
        slot.append(base + c.fold)
        alone.append(np.bincount(c.fold, minlength=c.size)[c.fold] == 1)
        base += c.size
    bins, qphi, slot, alone = (np.concatenate(x) for x in (bins, qphi, slot, alone))
    assert np.array_equal(np.flatnonzero(split.diagonal), np.unique(bins[alone]))
    alias = split.alias
    assert sum(a.bins.size for a in alias) == np.count_nonzero(~alone)
    start, last = 0, -1
    for a in alias:
        stop = start + a.bins.size
        assert np.array_equal(a.bins, bins[~alone][start:stop])
        assert np.array_equal(a.qphi, qphi[~alone][start:stop])
        ours = slot[~alone][start:stop]
        assert ours.min() > last  # no slot shared with an earlier chunk
        pairs = set(zip(ours.tolist(), a.fold.tolist()))
        assert len(pairs) == len(set(ours.tolist())) == a.size
        assert np.bincount(a.fold, minlength=a.size).min() >= 2
        start, last = stop, ours.max()
    arrays = [split.diagonal] + [x for a in alias for x in (a.bins, a.fold, a.qphi, a.dual)]
    assert not any(x.flags.writeable for x in arrays)


def held_arrays(spec, *more):
    """(holder.field, array) for every ndarray field of the spec's records,
    core, placed chunks and split (its alias chunks included), and of the
    holders more."""
    split = spec.split
    holders = (*more, spec.records, spec.core, *spec.chunks, split, *split.alias)
    return [(f"{type(h).__name__}.{f.name}", getattr(h, f.name)) for h in holders
            for f in dataclasses.fields(h) if isinstance(getattr(h, f.name), np.ndarray)]
