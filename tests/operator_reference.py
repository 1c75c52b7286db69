"""Operator products one coefficient product at a time, as a test reference.

:class:`~triggaudin.weyl.DiffOp` and :class:`~triggaudin.weyl.QDiffOp`
sum all the coefficient products of one output degree at once.  These
are the per-term loops they replaced: each (j, i, k) term is formed
whole by a plain sparse product, scaled by C(j, i) after it is formed,
traced on its own, and added into its degree with ``+``.  Neither the
product nor the trace goes through the kernels of
:mod:`triggaudin.kernels`.
"""

from math import comb

from triggaudin.tensor import AuxTensor
from triggaudin.weyl import DiffOp


def matmul(x, y):
    """x * y entry by entry, each product v * w kept in its order."""
    out = {}
    for (r, c), v in x.entries.items():
        for (r2, c2), w in y.entries.items():
            if c == r2:
                key = (r, c2)
                out[key] = out[key] + v * w if key in out else v * w
    return AuxTensor(x.space, x.ring, out, clean=True)


def product(x, y, names=()):
    """``x * y``, or ``(x * y).partial_trace(names)`` with legs named."""
    if names:
        mul = lambda a, b: matmul(a, b).partial_trace(names)  # noqa: E731
        space = x.space.drop(names)
    else:
        mul, space = matmul, x.space
    if isinstance(x, DiffOp):
        return _diffop_product(x, y, mul, space)
    return _qdiffop_product(x, y, mul, space)


def _add(out, deg, term):
    if not term.is_zero():
        out[deg] = out[deg] + term if deg in out else term


def _diffop_product(x, y, mul, space):
    """d^j g = sum_i C(j,i) g^(i) d^(j-i), one term at a time."""
    out = {}
    max_j = x.degree()
    if max_j is not None:
        for k, bk in y.coeffs.items():
            ders = [bk]
            for _ in range(max_j):
                ders.append(ders[-1].map_entries(lambda e: e.derivative()))
            for j, aj in x.coeffs.items():
                for i in range(j + 1):
                    term = mul(aj, ders[i])
                    c = comb(j, i)
                    if c != 1 and not term.is_zero():
                        term = term.scale(x.ring.from_int(c))
                    _add(out, j - i + k, term)
    return DiffOp(space, x.ring, out)


def _qdiffop_product(x, y, mul, space):
    """delta^j g(u) = g(shift^j u) delta^j, one term at a time."""
    out = {}
    for j, aj in x.coeffs.items():
        for k, bk in y.coeffs.items():
            shifted = bk
            if j:
                factor = x.shift**j
                shifted = bk.map_entries(lambda e: e.scale_var(factor))
            _add(out, j + k, mul(aj, shifted))
    return type(x)(space, x.ring, out, x.shift)
