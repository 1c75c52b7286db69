"""Sparse kernels.

These are the hot inner loops of the whole package: sparse
operator-times-operator products over exact coefficient rings, and the
one sparse sum that tensors, Laurent polynomials, PBW elements and
operator polynomials share.
"""


def sparse_matmul(a, b):
    """Multiply sparse matrices stored as {(row, col): value} dicts.

    Values may live in any exact ring (Fraction, RatFun, TruncSeries,
    PBW elements); the only requirements are ``+``, ``*`` and
    truthiness as a zero test.  Zero results are dropped.
    """
    by_row = {}
    for (r, c), v in b.items():
        if r in by_row:
            by_row[r].append((c, v))
        else:
            by_row[r] = [(c, v)]
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
