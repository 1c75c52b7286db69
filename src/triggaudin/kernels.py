"""Sparse kernels.

These are the hot inner loops of the whole package: sums of sparse
operator-times-operator products over exact coefficient rings, and the
one sparse sum that tensors, Laurent polynomials, PBW elements and
operator polynomials share.

:func:`sparse_matmul_sum` is the one product loop.  It takes a list of
(a, b) products and gives each output entry the pairs of entries of
every product that land on it, so a sum of products is reduced once per
entry, not once per product and once per partial sum.  When the type of
the entries has a ``dot(pairs)`` that returns sum v * w over a list of
(v, w) pairs, each output entry is one ``dot``:
:class:`~triggaudin.laurent.Laurent` and
:class:`~triggaudin.polering.PoleFun` have one, so the q-side's tensors
and the classical operators reduce once per output entry.  Entries of
other rings (``Fraction``, int, series, PBW elements) are added into a
running sum of ``v * w`` as the loop meets them, with no list of pairs,
each factor kept on its side since PBW entries do not commute.
:func:`sparse_matmul` is the one-product case.

:func:`sparse_matmul_trace` sums products over some legs without
forming them: it reindexes each factor so that the loop pairs only the
entries that survive the trace and adds them straight into the kept
index, so summing k legs of size N multiplies about 1/N^k of the pairs
of the full product, and each kept entry is still reduced at once.
"""


def sparse_matmul(a, b):
    """Multiply sparse matrices stored as {(row, col): value} dicts.

    Values may live in any exact ring (Fraction, PoleFun, TruncSeries,
    PBW elements, Laurent); the only requirements are ``+``, ``*`` and
    truthiness as a zero test.  Zero results are dropped.  This is the
    one-product case of :func:`sparse_matmul_sum`.
    """
    return sparse_matmul_sum(((a, b),))


def sparse_matmul_sum(products):
    """sum_t a_t b_t for a list of (a, b) sparse matrices of one shape.

    Each output entry gets the pairs (v, w) of every product that land
    on it, in the order of the products, and is reduced once: the
    pairs go to one ``dot`` where the entries' type has one, and are
    otherwise added into a running sum of ``v * w`` as they are met.
    Zero results are dropped.
    """
    out = {}
    dot = False  # not looked up yet
    for a, b in products:
        if not a:
            continue
        if dot is False:
            dot = getattr(type(next(iter(a.values()))), "dot", None)
        by_row = {}
        for (r, c), w in b.items():
            if r in by_row:
                by_row[r].append((c, w))
            else:
                by_row[r] = [(c, w)]
        for (r, c), v in a.items():
            row = by_row.get(c)
            if row is None:
                continue
            for c2, w in row:
                key = (r, c2)
                if dot is None:
                    p = v * w
                    out[key] = out[key] + p if key in out else p
                elif key in out:
                    out[key].append((v, w))
                else:
                    out[key] = [(v, w)]
    if dot:
        out = {key: dot(pairs) for key, pairs in out.items()}
    return {key: s for key, s in out.items() if s}


def sparse_matmul_trace(products, traced, kept):
    """sum_t a_t b_t summed over some legs, without forming the products.

    ``traced`` and ``kept`` map each flat index to its digits on the
    summed legs, packed into one int, and to its index on the other legs
    (the tables of ``tensor._trace_split``).  Entry (r, c2) of a product
    survives the trace only when traced[r] == traced[c2], and it is
    added to entry (kept[r], kept[c2]).  So the entry (r, c) of each
    ``a`` is stored at (kept[r], (traced[r], c)) and the entry (c, c2)
    of each ``b`` at ((traced[c2], c), kept[c2]), each (traced, c)
    packed into one int: in :func:`sparse_matmul_sum` two entries meet
    exactly when their pair survives, and their product lands on the
    kept index.  Neither reindexing merges entries, since an index is
    fixed by its traced digits and its kept index.
    """
    n = len(traced)
    return sparse_matmul_sum(
        [
            (
                {(kept[r], traced[r] * n + c): v for (r, c), v in a.items()},
                {(traced[c] * n + r, kept[c]): w for (r, c), w in b.items()},
            )
            for a, b in products
        ]
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
