"""Univariate polynomials over Q with integer numerators.

A polynomial is a tuple of Python ints over one positive int
denominator, p = (c_0 + c_1 x + ... + c_n x^n) / d, with the content
gcd(c_0, ..., c_n) coprime to d and no trailing zero.  That form is
canonical, so equality is structural.  Multiplication is integer
convolution, ``divmod`` is pseudo-division and ``gcd`` is a primitive
remainder sequence; ``Fraction`` appears only where a coefficient is
read out (``coefficient``, ``leading``, ``coeffs``, ``eval`` and the
rendering).  The zero polynomial has no coefficients and
``degree() is None``.

Only Q is served: the generic version over any coefficient field, which
stacks into towers such as Q(q)(u), is kept in the tests as their
reference.
"""

from fractions import Fraction
from math import gcd, lcm

from .rationals import QQ, normal_ints


def check_base(base):
    if base != QQ:
        raise ValueError("only QQ is served, not %r" % (base,))


def _raw(var, ints, den):
    """A polynomial from parts that are already in canonical form."""
    p = object.__new__(UniPoly)
    p.var = var
    p.ints = ints
    p.den = den
    return p


def _new(var, ints, den):
    """The polynomial ints / den for any ints and a positive den."""
    return _raw(var, *normal_ints(ints, den))


def _primitive(ints):
    """ints divided by their content, with a positive leading term."""
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_divmod(a, b):
    """Integer (s, quo, rem) with s * a = quo * b + rem and s > 0.

    Each step scales by lc(b) / gcd(lc(b), top) only, so a divisor whose
    leading term divides every top term (a monic one) never scales.
    """
    lc = b[-1]
    nb = len(b)
    rem = list(a)
    quo = [0] * max(len(a) - nb + 1, 0)
    s = 1
    for k in range(len(quo) - 1, -1, -1):
        top = rem[k + nb - 1]
        if not top:
            continue
        g = gcd(top, lc)
        if lc < 0:
            g = -g
        f = lc // g
        t = top // g
        if f != 1:
            rem = [c * f for c in rem]
            quo = [c * f for c in quo]
            s *= f
        quo[k] = t
        for j, c in enumerate(b):
            rem[k + j] -= t * c
    return s, quo, rem


class UniPoly:
    __slots__ = ("var", "ints", "den")

    base = QQ

    def __init__(self, var, base, coeffs):
        check_base(base)
        den = lcm(*[c.denominator for c in coeffs])
        self.var = var
        self.ints, self.den = normal_ints(
            [c.numerator * (den // c.denominator) for c in coeffs], den
        )

    @classmethod
    def from_ints(cls, var, ints, den=1):
        """The polynomial (ints[0] + ints[1] var + ...) / den, for int
        numerators and a positive int den."""
        return _new(var, ints, den)

    @classmethod
    def const(cls, var, base, c):
        return cls(var, base, (c,))

    @classmethod
    def zero(cls, var, base):
        return cls(var, base, ())

    @classmethod
    def gen(cls, var, base):
        return cls(var, base, (0, 1))

    @property
    def coeffs(self):
        """The coefficients as rationals, lowest degree first."""
        d = self.den
        return tuple([Fraction(c, d) for c in self.ints])

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else None

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def coefficient(self, k):
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return QQ.zero

    def leading(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def _check(self, other):
        if self.var != other.var:
            raise ValueError(
                "polynomial mismatch: %s vs %s" % (self.var, other.var)
            )

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (
            self.var == other.var
            and self.ints == other.ints
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.var, self.ints, self.den))

    def __add__(self, other):
        self._check(other)
        a, da, b, db = self.ints, self.den, other.ints, other.den
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            a = [c * fa for c in a]
            b = [c * fb for c in b]
            da *= fa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _new(self.var, out, da)

    def __neg__(self):
        return _raw(self.var, tuple([-c for c in self.ints]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self.ints, other.ints
        if not a or not b:
            return _raw(self.var, (), 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _new(self.var, out, self.den * other.den)

    def scale(self, c):
        """Multiply by a rational scalar."""
        return _new(
            self.var, [c.numerator * a for a in self.ints], self.den * c.denominator
        )

    def shift(self, k):
        """Multiply by var**k."""
        if not self.ints:
            return self
        return _raw(self.var, (0,) * k + self.ints, self.den)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(other)
        if len(self.ints) < len(other.ints):
            return _raw(self.var, (), 1), self
        s, quo, rem = _pseudo_divmod(self.ints, other.ints)
        # self = (quo / s) other.ints / den and other = other.ints / other.den
        d = s * self.den
        return (
            _new(self.var, [c * other.den for c in quo], d),
            _new(self.var, rem, d),
        )

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        a = self.ints
        if not a or a[-1] == self.den:
            return self
        if a[-1] < 0:
            return _new(self.var, [-c for c in a], -a[-1])
        return _new(self.var, a, a[-1])

    def gcd(self, other):
        """Monic gcd by a primitive remainder sequence.

        The remainders are integer pseudo-remainders divided by their
        content, which keeps the integers small; the last nonzero one,
        made monic, is the gcd over Q.
        """
        a, b = self, other
        # zero or monomial operands settle the answer without division
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        for x, y in ((a, b), (b, a)):
            if not any(x.ints[:-1]):
                # x = c var^k and var is prime: gcd = var^min(k, val(y))
                k = min(len(x.ints) - 1, y.valuation())
                return _raw(self.var, (0,) * k + (1,), 1)
        a, b = _primitive(a.ints), _primitive(b.ints)
        while len(b) > 1:
            rem = normal_ints(_pseudo_divmod(a, b)[2], 1)[0]
            if not rem:
                return _raw(self.var, tuple(b), b[-1])
            a, b = b, _primitive(rem)
        return _raw(self.var, (1,), 1)

    def derivative(self):
        a = self.ints
        return _new(self.var, [k * a[k] for k in range(1, len(a))], self.den)

    def eval(self, point):
        """Evaluate at a rational point (homogeneous Horner on ints)."""
        a = self.ints
        if not a:
            return QQ.zero
        p, q = point.numerator, point.denominator
        acc = a[-1]
        qk = 1
        for c in reversed(a[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, qk * self.den)

    def compose_shift(self, point):
        """Return p(var + point) as a polynomial in var."""
        a = self.ints
        n = len(a) - 1
        if n < 1:
            return self
        p, q = point.numerator, point.denominator
        # b(y) = q^n a(y / q) is integral, and p(x + p/q) = b(q x + p) / q^n
        b = [c * q ** (n - k) for k, c in enumerate(a)]
        for i in range(n):  # Taylor shift: b(y) -> b(y + p)
            for j in range(n - 1, i - 1, -1):
                b[j] += p * b[j + 1]
        return _new(
            self.var, [c * q ** k for k, c in enumerate(b)], q ** n * self.den
        )

    def scale_var(self, factor):
        """Return p(factor * var) for a rational factor."""
        a = self.ints
        n = len(a) - 1
        p, q = factor.numerator, factor.denominator
        return _new(
            self.var,
            [c * p ** k * q ** (n - k) for k, c in enumerate(a)],
            q ** max(n, 0) * self.den,
        )

    def valuation(self):
        """Order of vanishing at 0 (None for the zero polynomial)."""
        if not self.ints:
            return None
        v = 0
        while not self.ints[v]:
            v += 1
        return v

    def __repr__(self):
        if not self.ints:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append("(%s)" % (c,))
            elif k == 1:
                parts.append("(%s)*%s" % (c, self.var))
            else:
                parts.append("(%s)*%s^%d" % (c, self.var, k))
        return " + ".join(parts)
