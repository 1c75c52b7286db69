"""Reduced rational functions in one indeterminate over a generic field.

The canonical form has gcd(num, den) = 1 and a monic denominator, so
structural equality is the same as mathematical equality.  Fields can
be stacked into towers by using :class:`FracField` as the coefficient
field of another :class:`FracField` (Q, then Q(q), then Q(q)(u), ...).
"""

from .poly import UniPoly


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated or expanded at a
    pole in a context that does not allow Laurent data, or when a
    denominator factor falls outside a declared pole list."""


class RatFun:
    __slots__ = ("var", "base", "num", "den")

    def __init__(self, var, base, num, den, reduce=True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            g = num.gcd(den)
            if g.degree() not in (None, 0):
                num = num // g
                den = den // g
            lead = den.leading()
            if lead != base.one:
                inv = base.one / lead
                num = num.scale(inv)
                den = den.scale(inv)
        self.var = var
        self.base = base
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, p):
        one = UniPoly.const(p.var, p.base, p.base.one)
        return cls(p.var, p.base, p, one, reduce=False)

    @classmethod
    def const(cls, var, base, c):
        return cls.from_poly(UniPoly.const(var, base, c))

    @classmethod
    def zero(cls, var, base):
        return cls.from_poly(UniPoly.zero(var, base))

    @classmethod
    def one(cls, var, base):
        return cls.const(var, base, base.one)

    @classmethod
    def gen(cls, var, base):
        return cls.from_poly(UniPoly.gen(var, base))

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_constant(self):
        return self.num.degree() in (None, 0) and self.den.degree() == 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant: %r" % self)
        return self.num.coefficient(0)

    def _check(self, other):
        if self.var != other.var or self.base != other.base:
            raise ValueError(
                "rational-function field mismatch: %s vs %s"
                % (self.var, other.var)
            )

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return (
            self.var == other.var
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.var, self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def _add_sub(self, other, sub):
        # Henrici's scheme: cancel the denominator gcd up front so the
        # final reduction is a gcd against a (usually small) cofactor.
        self._check(other)
        d1, d2 = self.den, other.den
        g = d1.gcd(d2)
        if g.degree() in (None, 0):
            num = (
                self.num * d2 - other.num * d1
                if sub
                else self.num * d2 + other.num * d1
            )
            return RatFun(self.var, self.base, num, d1 * d2, reduce=False)._monic()
        d2r = d2 // g
        t1 = self.num * d2r
        t2 = other.num * (d1 // g)
        t = t1 - t2 if sub else t1 + t2
        g2 = t.gcd(g)
        if g2.degree() in (None, 0):
            return RatFun(self.var, self.base, t, d1 * d2r, reduce=False)._monic()
        return RatFun(
            self.var, self.base, t // g2, (d1 // g2) * d2r, reduce=False
        )._monic()

    def __add__(self, other):
        return self._add_sub(other, False)

    def __sub__(self, other):
        return self._add_sub(other, True)

    def __neg__(self):
        return RatFun(self.var, self.base, -self.num, self.den, reduce=False)

    def _monic(self):
        lead = self.den.leading()
        if lead == self.base.one:
            return self
        inv = self.base.one / lead
        return RatFun(
            self.var,
            self.base,
            self.num.scale(inv),
            self.den.scale(inv),
            reduce=False,
        )

    def __mul__(self, other):
        self._check(other)
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        g1 = n1.gcd(d2)
        if g1.degree() not in (None, 0):
            n1 = n1 // g1
            d2 = d2 // g1
        g2 = n2.gcd(d1)
        if g2.degree() not in (None, 0):
            n2 = n2 // g2
            d1 = d1 // g2
        return RatFun(self.var, self.base, n1 * n2, d1 * d2, reduce=False)._monic()

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        g1 = n1.gcd(n2)
        if g1.degree() not in (None, 0):
            n1 = n1 // g1
            n2 = n2 // g1
        g2 = d2.gcd(d1)
        if g2.degree() not in (None, 0):
            d2 = d2 // g2
            d1 = d1 // g2
        return RatFun(self.var, self.base, n1 * d2, d1 * n2, reduce=False)._monic()

    def __pow__(self, k):
        if k < 0:
            return RatFun.one(self.var, self.base) / self ** (-k)
        out = RatFun.one(self.var, self.base)
        b = self
        while k:
            if k & 1:
                out = out * b
            b = b * b
            k >>= 1
        return out

    def scale(self, c):
        return RatFun(self.var, self.base, self.num.scale(c), self.den)

    def derivative(self):
        """Quotient-rule derivative, reduced."""
        num = (
            self.num.derivative() * self.den
            - self.num * self.den.derivative()
        )
        return RatFun(self.var, self.base, num, self.den * self.den)

    def scale_var(self, factor):
        """Substitute var -> factor * var for a scalar factor."""
        return RatFun(
            self.var,
            self.base,
            self.num.scale_var(factor),
            self.den.scale_var(factor),
        )

    def eval(self, point):
        d = self.den.eval(point)
        if not d:
            raise PoleError("evaluation at a pole: %s = %s" % (self.var, point))
        return self.num.eval(point) / d

    # -- local expansions ---------------------------------------------

    def expand_at(self, point, min_order, max_order):
        """Laurent coefficients c_k at the point, k = min_order..max_order.

        The coefficients are exact elements of the base field; for a
        rational function the expansion always exists, with finitely
        many negative orders.
        """
        if max_order < min_order:
            raise ValueError("max_order < min_order")
        num = self.num.compose_shift(point)
        den = self.den.compose_shift(point)
        if num.is_zero():
            return [self.base.zero] * (max_order - min_order + 1)
        v = den.valuation()
        # f(point + t) = t^{-v} * num(t) / den1(t), den1(0) != 0
        den1 = UniPoly(self.var, self.base, den.coeffs[v:])
        # power series inverse of den1 to sufficient order
        need = max_order + v
        inv0 = self.base.one / den1.coefficient(0)
        series = [inv0]
        for k in range(1, need + 1):
            acc = self.base.zero
            for j in range(1, min(k, den1.degree()) + 1):
                acc = acc + den1.coefficient(j) * series[k - j]
            series.append(-inv0 * acc)
        out = []
        for order in range(min_order, max_order + 1):
            k = order + v  # index into num * series product
            if k < 0:
                out.append(self.base.zero)
                continue
            acc = self.base.zero
            for j in range(0, k + 1):
                c = num.coefficient(j)
                if c and k - j <= need:
                    acc = acc + c * series[k - j]
            out.append(acc)
        return out

    def residue_at(self, point):
        return self.expand_at(point, -1, -1)[0]

    def partial_fractions(self, poles):
        """Decompose into a polynomial part plus pole contributions.

        Returns ``(poly_part, {pole: [c_1, ..., c_m]})`` meaning
        f = poly_part + sum_i sum_p c_p / (var - pole_i)**p.  The
        denominator must split over the given pole list; an unlisted
        irreducible factor raises :class:`PoleError` naming it.
        """
        poly_part, rem = self.num.divmod(self.den)
        # determine multiplicities by exact division
        den = self.den
        mult = {}
        for a in poles:
            lin = UniPoly(
                self.var, self.base, (-(self.base.one * a), self.base.one)
            )
            m = 0
            while True:
                q, r = den.divmod(lin)
                if r.is_zero():
                    den = q
                    m += 1
                else:
                    break
            if m:
                mult[a] = m
        if den.degree() not in (None, 0):
            raise PoleError(
                "denominator factor outside declared pole list: %r" % den
            )
        coeffs = {}
        for a, m in mult.items():
            lau = self.expand_at(a, -m, -1)
            # lau[k] is the coefficient of (u-a)^{k-m}; store order p
            cs = [lau[m - p] for p in range(1, m + 1)]
            if any(cs):
                coeffs[a] = cs
        return poly_part, coeffs

    def recombine_check(self, poly_part, coeffs):
        """Rebuild the function from partial-fraction data and compare."""
        acc = RatFun.from_poly(poly_part)
        one = RatFun.one(self.var, self.base)
        u = RatFun.gen(self.var, self.base)
        for a, cs in coeffs.items():
            pole = u - RatFun.const(self.var, self.base, self.base.one * a)
            for p, c in enumerate(cs, start=1):
                acc = acc + (one / pole ** p).scale(c)
        return acc == self

    def __repr__(self):
        if self.den.degree() == 0:
            return "(%r)" % (self.num,)
        return "(%r)/(%r)" % (self.num, self.den)


class FracField:
    """Ring descriptor for rational functions in one variable over a base."""

    def __init__(self, var, base):
        self.var = var
        self.base = base
        self.zero = RatFun.zero(var, base)
        self.one = RatFun.one(var, base)
        self.gen = RatFun.gen(var, base)

    def from_int(self, n):
        return RatFun.const(self.var, self.base, self.base.from_int(n))

    def embed(self, c):
        """Lift a base-field element to a constant rational function."""
        return RatFun.const(self.var, self.base, c)

    def __eq__(self, other):
        return (
            isinstance(other, FracField)
            and self.var == other.var
            and self.base == other.base
        )

    def __hash__(self):
        return hash(("FracField", self.var, self.base))

    def __repr__(self):
        return "%r(%s)" % (self.base, self.var)
