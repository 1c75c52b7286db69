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
