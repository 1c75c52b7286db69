"""Univariate polynomials over a generic coefficient field.

Coefficients live in an arbitrary field given by a ring descriptor
(see :mod:`triggaudin.rationals`); the elements only need the usual
arithmetic operators plus truthiness as a zero test.  The zero
polynomial has an empty coefficient list and ``degree() is None``.
"""


class UniPoly:
    __slots__ = ("var", "base", "coeffs")

    def __init__(self, var, base, coeffs):
        # strip trailing zeros so representation is canonical
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.var = var
        self.base = base
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def const(cls, var, base, c):
        return cls(var, base, (c,))

    @classmethod
    def zero(cls, var, base):
        return cls(var, base, ())

    @classmethod
    def gen(cls, var, base):
        return cls(var, base, (base.zero, base.one))

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.base.zero

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if self.var != other.var or self.base != other.base:
            raise ValueError(
                "polynomial mismatch: %s over %r vs %s over %r"
                % (self.var, self.base, other.var, other.base)
            )

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (
            self.var == other.var
            and self.base == other.base
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.var, self.base, out)

    def __neg__(self):
        return UniPoly(self.var, self.base, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(self.var, self.base)
        z = self.base.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, self.base, out)

    def scale(self, c):
        """Multiply by a scalar from the coefficient field."""
        return UniPoly(self.var, self.base, [c * a for a in self.coeffs])

    def shift(self, k):
        """Multiply by var**k."""
        if not self.coeffs:
            return self
        return UniPoly(
            self.var, self.base, (self.base.zero,) * k + self.coeffs
        )

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(other)
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(self.var, self.base), self
        quo = [self.base.zero] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if not top:
                continue
            q = top / lead
            quo[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * c
        return (
            UniPoly(self.var, self.base, quo),
            UniPoly(self.var, self.base, rem),
        )

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if not self.coeffs:
            return self
        inv = self.base.one / self.leading()
        return self.scale(inv)

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm.

        Every remainder is made monic as it appears, which keeps the
        coefficients small over Q(q) and other rational-function bases;
        the plain remainder sequence grows them without bound.
        """
        a, b = self, other
        # zero or monomial operands settle the answer without division
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        for x, y in ((a, b), (b, a)):
            if not any(x.coeffs[:-1]):
                # x = c var^k and var is prime: gcd = var^min(k, val(y))
                k = min(len(x.coeffs) - 1, y.valuation())
                return UniPoly.const(self.var, self.base, self.base.one).shift(k)
        b = b.monic()
        while b:
            a, b = b, (a % b).monic()
            if len(a.coeffs) == 1:
                return UniPoly.const(self.var, self.base, self.base.one)
        return a

    def derivative(self):
        out = [
            self.base.from_int(k) * self.coeffs[k]
            for k in range(1, len(self.coeffs))
        ]
        return UniPoly(self.var, self.base, out)

    def eval(self, point):
        """Evaluate at a point of the coefficient field (Horner)."""
        acc = self.base.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_shift(self, point):
        """Return p(var + point) as a polynomial in var."""
        # Horner on (var + point): acc := acc*(x+point) + c
        x_plus = UniPoly(self.var, self.base, (point, self.base.one))
        acc = UniPoly.zero(self.var, self.base)
        for c in reversed(self.coeffs):
            acc = acc * x_plus + UniPoly.const(self.var, self.base, c)
        return acc

    def scale_var(self, factor):
        """Return p(factor * var) for a scalar factor."""
        out = []
        pw = self.base.one
        for c in self.coeffs:
            out.append(c * pw)
            pw = pw * factor
        return UniPoly(self.var, self.base, out)

    def valuation(self):
        """Order of vanishing at 0 (None for the zero polynomial)."""
        if not self.coeffs:
            return None
        v = 0
        while not self.coeffs[v]:
            v += 1
        return v

    def __repr__(self):
        if not self.coeffs:
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
