"""Exact rational scalars and the base field Q.

Every number in this package is an exact rational; there is no floating
point anywhere.  The scalar type is ``fractions.Fraction``.  Containers
whose arithmetic is hot hold integer numerators over one positive
denominator instead, kept canonical by :func:`normal_ints`.
"""

from fractions import Fraction
from math import gcd

rational = Fraction


def normal_ints(ints, den):
    """(ints, den) without trailing zeros, divided by their common gcd.

    ``ints`` is a sequence of Python ints and ``den`` a positive int; the
    result is a tuple of ints whose content is coprime to the returned
    denominator, or ((), 1) for zero.
    """
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return (), 1
    if n < len(ints):
        ints = ints[:n]
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            return tuple([c // g for c in ints]), den // g
    return tuple(ints), den


def parse_rational(text):
    """Parse ``"p"`` or ``"p/q"`` into an exact rational."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/", 1)
        return rational(int(p), int(q))
    return rational(int(text))


class RationalField:
    """The field Q of exact rationals, as a ring descriptor.

    Ring descriptors carry the constants and conversions that generic
    containers (polynomials, tensors) need; the elements themselves do
    arithmetic through their own operators.
    """

    def __init__(self):
        self.zero = rational(0)
        self.one = rational(1)

    def from_int(self, n):
        return rational(n)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()
