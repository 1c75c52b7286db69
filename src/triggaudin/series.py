"""Truncated power series over a generic coefficient ring.

Arithmetic truncates eagerly and every series remembers how far its
coefficients are trustworthy.  Asking for a coefficient beyond the
truncation order raises :class:`TruncationError` instead of returning
zero, so precision loss in (q-1)-expansions is never silent.

The coefficient ring may be noncommutative (PBW elements); series
multiplication preserves factor order.

Trailing zero coefficients are dropped and read back as zero.  A
coefficient that is itself a series with no nonzero known term is
dropped only when it is known as far as the coefficient ring's zero:
an x-series coefficient that is an eps-series known to fewer orders
keeps its truncation order, so reading past it raises instead of
returning an exact zero.
"""


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
            if isinstance(last, TruncSeries) and last.order < base.zero.order:
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
