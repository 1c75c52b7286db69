"""Sparse kernels.

These are the hot inner loops of the whole package: sparse
operator-times-operator products over exact coefficient rings, and the
one sparse sum that tensors, Laurent polynomials, PBW elements and
operator polynomials share.

The product has one hook: when the type of the left factor's first
entry has a ``dot(pairs)`` that returns sum v * w over a list of (v, w)
pairs, each output entry is one ``dot`` over its pairs instead of a
running sum of products.  Only :class:`~triggaudin.laurent.Laurent`
has one, so the q-side's Laurent tensors reduce once per output entry;
``Fraction``, int, ``PoleFun``, series and PBW entries take the
pairwise loop.

:func:`sparse_matmul_trace` sums a product over some legs without
forming it: it reindexes both factors so that :func:`sparse_matmul`
pairs only the entries that survive the trace and adds them straight
into the kept index, so summing k legs of size N multiplies about
1/N^k of the pairs of the full product, and the ``dot`` hook sums each
kept entry at once.
"""


def sparse_matmul(a, b):
    """Multiply sparse matrices stored as {(row, col): value} dicts.

    Values may live in any exact ring (Fraction, PoleFun, TruncSeries,
    PBW elements, Laurent); the only requirements are ``+``, ``*`` and
    truthiness as a zero test.  Zero results are dropped.  Rings whose
    type has ``dot`` get one ``dot`` per output entry (see above).
    """
    if not a:
        return {}
    by_row = {}
    for (r, c), v in b.items():
        if r in by_row:
            by_row[r].append((c, v))
        else:
            by_row[r] = [(c, v)]
    dot = getattr(type(next(iter(a.values()))), "dot", None)
    if dot is not None:
        pairs = {}
        for (r, c), v in a.items():
            row = by_row.get(c)
            if row is None:
                continue
            for c2, w in row:
                key = (r, c2)
                if key in pairs:
                    pairs[key].append((v, w))
                else:
                    pairs[key] = [(v, w)]
        out = {k: dot(p) for k, p in pairs.items()}
        return {k: v for k, v in out.items() if v}
    out = {}
    for (r, c), v in a.items():
        row = by_row.get(c)
        if row is None:
            continue
        for c2, w in row:
            key = (r, c2)
            p = v * w
            if key in out:
                out[key] = out[key] + p
            else:
                out[key] = p
    return {k: v for k, v in out.items() if v}


def sparse_matmul_trace(a, b, traced, kept):
    """The product of ``a`` and ``b`` summed over some legs, without forming it.

    ``traced`` and ``kept`` map each flat index to its digits on the
    summed legs, packed into one int, and to its index on the other legs
    (the tables of ``tensor._trace_split``).  Entry (r, c2) of the
    product survives the trace only when traced[r] == traced[c2], and it
    is added to entry (kept[r], kept[c2]).  So the entry (r, c) of ``a``
    is stored at (kept[r], (traced[r], c)) and the entry (c, c2) of
    ``b`` at ((traced[c2], c), kept[c2]), each (traced, c) packed into
    one int: in :func:`sparse_matmul` two entries meet exactly when
    their pair survives, and their product lands on the kept index.
    Neither reindexing merges entries, since an index is fixed by its
    traced digits and its kept index.
    """
    n = len(traced)
    return sparse_matmul(
        {(kept[r], traced[r] * n + c): v for (r, c), v in a.items()},
        {(traced[c] * n + r, kept[c]): w for (r, c), w in b.items()},
    )


def sparse_add(a, b):
    """Entrywise sum of two sparse dicts, dropping zeros."""
    out = dict(a)
    for k, v in b.items():
        if k in out:
            s = out[k] + v
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = v
    return out
