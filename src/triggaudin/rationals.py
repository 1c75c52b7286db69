"""Exact rational scalars and the base field Q.

Every number in this package is an exact rational; there is no floating
point anywhere.  The scalar type is ``fractions.Fraction``.
"""

from fractions import Fraction

rational = Fraction


def parse_rational(text):
    """Parse ``"p"`` or ``"p/q"`` into an exact rational."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/", 1)
        return rational(int(p), int(q))
    return rational(int(text))


def format_rational(x):
    """Render a rational as ``"p/q"`` (always with a denominator)."""
    return "%d/%d" % (x.numerator, x.denominator)


class RationalField:
    """The field Q of exact rationals, as a ring descriptor.

    Ring descriptors carry the constants and conversions that generic
    containers (polynomials, tensors) need; the elements themselves do
    arithmetic through their own operators.
    """

    name = "QQ"

    def __init__(self):
        self.zero = rational(0)
        self.one = rational(1)

    def from_int(self, n):
        return rational(n)

    def is_zero(self, x):
        return not x

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()
