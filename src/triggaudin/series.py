"""Truncated power series: over a generic coefficient ring, and over Q.

Arithmetic truncates eagerly and every series remembers how far its
coefficients are trustworthy.  Asking for a coefficient beyond the
truncation order raises :class:`TruncationError` instead of returning
zero, so precision loss in (q-1)-expansions is never silent.

:class:`TruncSeries` takes any coefficient ring, which may be
noncommutative (PBW elements); series multiplication preserves factor
order.  Series over Q (the eps-series of the q -> 1 checks) are
:class:`QSeries` instead: integer numerators over one positive
denominator, content-reduced and without trailing zeros, so products
are integer convolutions, division is an integer recursion, and
``Fraction`` appears only where a coefficient is read out.  The generic
series over Q is kept in the tests as their reference.

Trailing zero coefficients are dropped and read back as zero.  A
coefficient that is itself a series with no nonzero known term is
dropped only when it is known as far as the coefficient ring's zero:
an x-series coefficient that is an eps-series known to fewer orders
keeps its truncation order, so reading past it raises instead of
returning an exact zero.
"""

from math import gcd

from .rationals import QQ, normal_ints, rational


class TruncationError(ArithmeticError):
    pass


class TruncSeries:
    __slots__ = ("var", "base", "order", "coeffs")

    def __init__(self, var, base, order, coeffs):
        if order < -1:
            raise ValueError("negative truncation order")
        coeffs = list(coeffs[: order + 1])
        while coeffs and not coeffs[-1]:
            # a zero series known to fewer orders than the ring's zero is
            # not an exact zero: keep it, so its truncation order survives
            last = coeffs[-1]
            if (
                isinstance(last, (TruncSeries, QSeries))
                and last.order < base.zero.order
            ):
                break
            coeffs.pop()
        self.var = var
        self.base = base
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, var, base, c, order):
        return cls(var, base, order, (c,))

    @classmethod
    def zero(cls, var, base, order):
        return cls(var, base, order, ())

    @classmethod
    def one(cls, var, base, order):
        return cls(var, base, order, (base.one,))

    @classmethod
    def gen(cls, var, base, order):
        return cls(var, base, order, (base.zero, base.one))

    def coefficient(self, k):
        if k > self.order:
            raise TruncationError(
                "coefficient of %s^%d requested, series truncated at order %d"
                % (self.var, k, self.order)
            )
        if k < 0 or k >= len(self.coeffs):
            return self.base.zero
        return self.coeffs[k]

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.var != other.var or self.base != other.base:
            raise ValueError("series mismatch: %s vs %s" % (self.var, other.var))

    def __eq__(self, other):
        """Structural equality on the common reliable window."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.var != other.var:
            return False
        n = min(self.order, other.order) + 1
        a = (self.coeffs + (self.base.zero,) * n)[:n]
        b = (other.coeffs + (other.base.zero,) * n)[:n]
        return list(a) == list(b)

    def __hash__(self):
        # Equality only looks at the common window, which is empty for
        # order -1, so the variable is all that equal series share.
        return hash(self.var)

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(min(n, order + 1)):
            a = self.coeffs[k] if k < len(self.coeffs) else self.base.zero
            b = other.coeffs[k] if k < len(other.coeffs) else self.base.zero
            out.append(a + b)
        return TruncSeries(self.var, self.base, order, out)

    def __neg__(self):
        return TruncSeries(
            self.var, self.base, self.order, [-c for c in self.coeffs]
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        out = [self.base.zero] * (order + 1)
        for i, a in enumerate(self.coeffs):
            if not a or i > order:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > order:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.var, self.base, order, out)

    def scale(self, c):
        return TruncSeries(
            self.var, self.base, self.order, [c * a for a in self.coeffs]
        )

    def shift(self, k):
        """Multiply by var**k (k >= 0); truncation order is unchanged."""
        return TruncSeries(
            self.var, self.base, self.order, (self.base.zero,) * k + self.coeffs
        )

    def derivative(self):
        """Term-by-term derivative; one order of precision is lost."""
        out = [
            self.base.from_int(k) * self.coeffs[k]
            for k in range(1, len(self.coeffs))
        ]
        return TruncSeries(self.var, self.base, self.order - 1, out)

    def scale_var(self, factor):
        out = []
        pw = self.base.one
        for c in self.coeffs:
            out.append(c * pw)
            pw = pw * factor
        return TruncSeries(self.var, self.base, self.order, out)

    def invert(self):
        """Multiplicative inverse; requires an invertible constant term."""
        if not self.coeffs or not self.coeffs[0]:
            raise ZeroDivisionError("series with zero constant term")
        inv0 = self.base.one / self.coeffs[0]
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = self.base.zero
            for j in range(1, k + 1):
                c = self.coeffs[j] if j < len(self.coeffs) else self.base.zero
                if c:
                    acc = acc + c * out[k - j]
            out.append(-(inv0 * acc))
        return TruncSeries(self.var, self.base, self.order, out)

    def __truediv__(self, other):
        """Quotient by other = var^v * unit when self vanishes to order v,
        known to v orders less; any other divisor with a zero constant
        term raises ZeroDivisionError."""
        self._check(other)
        v = next((k for k, c in enumerate(other.coeffs) if c), 0)
        if any(self.coefficient(k) for k in range(v)):
            raise ZeroDivisionError("dividend does not vanish to order %d" % v)
        num = TruncSeries(self.var, self.base, self.order - v, self.coeffs[v:])
        den = TruncSeries(self.var, self.base, other.order - v, other.coeffs[v:])
        return num * den.invert()

    def __pow__(self, k):
        """k-th power; a negative power inverts first."""
        if k < 0:
            return self.invert() ** -k
        out = TruncSeries.one(self.var, self.base, self.order)
        b = self
        while k:
            if k & 1:
                out = out * b
            k >>= 1
            if k:
                b = b * b
        return out

    def __repr__(self):
        parts = [
            "(%s)*%s^%d" % (c, self.var, k)
            for k, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(parts) if parts else "0"
        return "%s + O(%s^%d)" % (body, self.var, self.order + 1)


class SeriesRing:
    """Ring descriptor for truncated series in one variable."""

    def __init__(self, var, base, order):
        self.var = var
        self.base = base
        self.order = order
        self.zero = TruncSeries.zero(var, base, order)
        self.one = TruncSeries.one(var, base, order)
        self.gen = TruncSeries.gen(var, base, order)

    def from_int(self, n):
        return TruncSeries.const(
            self.var, self.base, self.base.from_int(n), self.order
        )

    def embed(self, c):
        return TruncSeries.const(self.var, self.base, c, self.order)

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and self.var == other.var
            and self.base == other.base
            and self.order == other.order
        )

    def __hash__(self):
        return hash(("SeriesRing", self.var, self.base, self.order))

    def __repr__(self):
        return "%r[[%s]]/%s^%d" % (self.base, self.var, self.var, self.order + 1)


def _new(var, order, ints, den):
    """The series ints / den cut at ``order``, for any int numerators
    and a positive int den."""
    if len(ints) > order + 1:
        ints = ints[: order + 1]
    return QSeries(var, order, *normal_ints(ints, den))


def _quotient(var, a, da, b, db, order):
    """(a / da) / (b / db) to ``order``, for int numerators with b[0] != 0.

    The quotient's coefficients q_k have denominators dividing
    b0^(k+1), so Q_k = q_k * b0^(order+1) (numerators only) are the
    integers Q_k = a_k b0^order - (sum_{j=1..k} b_j Q_(k-j)) / b0, where
    every division is exact.
    """
    if order < 0:
        return QSeries(var, order, (), 1)
    b0 = b[0]
    p = b0 ** order
    nb = len(b)
    out = []
    for k in range(order + 1):
        acc = 0
        for j in range(1, min(k, nb - 1) + 1):
            acc += b[j] * out[k - j]
        out.append((a[k] * p if k < len(a) else 0) - acc // b0)
    den = da * b0 * p
    if den < 0:
        den = -den
        db = -db
    return _new(var, order, [c * db for c in out], den)


class QSeries:
    """A truncated power series over Q: (ints[0] + ints[1] var + ...) / den
    + O(var^(order+1)).

    ``ints`` is a tuple of Python ints without trailing zeros whose
    content is coprime to the positive int ``den``; the zero series has
    no ints and den 1.  That form is canonical, so equality on a common
    window is structural.  The semantics are those of
    :class:`TruncSeries` over Q.
    """

    __slots__ = ("var", "order", "ints", "den")

    def __init__(self, var, order, ints, den=1):
        """The series ints / den; the parts must be in canonical form."""
        if order < -1:
            raise ValueError("negative truncation order")
        self.var = var
        self.order = order
        self.ints = ints
        self.den = den

    def coefficient(self, k):
        if k > self.order:
            raise TruncationError(
                "coefficient of %s^%d requested, series truncated at order %d"
                % (self.var, k, self.order)
            )
        if k < 0 or k >= len(self.ints):
            return QQ.zero
        return rational(self.ints[k], self.den)

    def __bool__(self):
        return bool(self.ints)

    def is_zero(self):
        return not self.ints

    def _check(self, other):
        if type(other) is not QSeries:
            raise TypeError("cannot combine QSeries with %r" % type(other))
        if self.var != other.var:
            raise ValueError("series mismatch: %s vs %s" % (self.var, other.var))

    def _window(self, n):
        """The canonical parts of the first n coefficients."""
        if len(self.ints) <= n:
            return self.ints, self.den
        return normal_ints(self.ints[:n], self.den)

    def __eq__(self, other):
        """Structural equality on the common reliable window."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.var != other.var:
            return False
        n = min(self.order, other.order) + 1
        return self._window(n) == other._window(n)

    def __hash__(self):
        # as for TruncSeries: equal series share only the variable
        return hash(self.var)

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        a, da, b, db = self.ints, self.den, other.ints, other.den
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            a = [c * fa for c in a]
            b = [c * fb for c in b]
            da *= fa
        if len(a) < len(b):
            a, b = b, a
        out = list(a[: order + 1])
        for k, c in enumerate(b[: order + 1]):
            out[k] += c
        return _new(self.var, order, out, da)

    def __neg__(self):
        ints = tuple([-c for c in self.ints])
        return QSeries(self.var, self.order, ints, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        a, b = self.ints, other.ints
        n = min(len(a) + len(b) - 1, order + 1)
        out = [0] * max(n, 0)
        for i, x in enumerate(a[:n]):
            if x:
                for j, y in enumerate(b[: n - i]):
                    out[i + j] += x * y
        return _new(self.var, order, out, self.den * other.den)

    def scale(self, c):
        """The series times the rational (or int) c."""
        ints = [c.numerator * x for x in self.ints]
        return _new(self.var, self.order, ints, self.den * c.denominator)

    def invert(self):
        """Multiplicative inverse; requires an invertible constant term."""
        if not self.ints or not self.ints[0]:
            raise ZeroDivisionError("series with zero constant term")
        return _quotient(self.var, (1,), 1, self.ints, self.den, self.order)

    def __truediv__(self, other):
        """Quotient by other = var^v * unit when self vanishes to order v,
        known to v orders less; any other divisor with a zero constant
        term raises ZeroDivisionError."""
        self._check(other)
        a, b = self.ints, other.ints
        v = next((k for k, c in enumerate(b) if c), 0)
        if any(a[:v]):
            raise ZeroDivisionError("dividend does not vanish to order %d" % v)
        if v > self.order + 1:
            # the dividend is not known to vanish to order v
            self.coefficient(self.order + 1)
        if not b:
            raise ZeroDivisionError("series with zero constant term")
        order = min(self.order, other.order) - v
        return _quotient(self.var, a[v:], self.den, b[v:], other.den, order)

    def __pow__(self, k):
        """k-th power; a negative power inverts first."""
        if k < 0:
            return self.invert() ** -k
        out = _new(self.var, self.order, (1,), 1)
        b = self
        while k:
            if k & 1:
                out = out * b
            k >>= 1
            if k:
                b = b * b
        return out

    def __repr__(self):
        parts = [
            "(%s)*%s^%d" % (rational(c, self.den), self.var, k)
            for k, c in enumerate(self.ints)
            if c
        ]
        body = " + ".join(parts) if parts else "0"
        return "%s + O(%s^%d)" % (body, self.var, self.order + 1)


class QSeriesRing:
    """Ring descriptor for truncated series over Q in one variable."""

    def __init__(self, var, order):
        self.var = var
        self.order = order
        self.zero = _new(var, order, (), 1)
        self.one = _new(var, order, (1,), 1)
        self.gen = _new(var, order, (0, 1), 1)

    def from_int(self, n):
        return _new(self.var, self.order, (n,), 1)

    def __eq__(self, other):
        return (
            isinstance(other, QSeriesRing)
            and self.var == other.var
            and self.order == other.order
        )

    def __hash__(self):
        return hash(("QSeriesRing", self.var, self.order))

    def __repr__(self):
        return "QQ[[%s]]/%s^%d" % (self.var, self.var, self.order + 1)
