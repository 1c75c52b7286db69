"""Reduced rational functions in one indeterminate over Q.

The canonical form has gcd(num, den) = 1 and a monic denominator, so
structural equality is the same as mathematical equality.  Numerator
and denominator are :class:`~triggaudin.poly.UniPoly` values with
integer numerators, and the denominator's monicity is tested on those
integers.  Products and sums skip the gcds whose answer is known: a
constant factor (in ``*`` and ``scale``) only scales the numerator, a
sum with a denominator 1 is already reduced, since gcd(n1 d2 + n2, d2)
= gcd(n2, d2) = 1, and a sum over one denominator d is reduced against
d alone.  Only Q is served (a base other than ``QQ`` raises
``ValueError``); the generic tower Q(q)(u), with rational functions as
coefficients, is kept in the tests as their reference.  In the package
only the q-side's eps bridge uses them (:data:`triggaudin.qside.Qu`);
the classical side works in the gcd-free ring of
:mod:`~triggaudin.polering`.
"""

from fractions import Fraction

from .polering import PoleError
from .poly import UniPoly, check_base
from .rationals import QQ


def _monic(num, den):
    """num / den with den made monic, tested on its integer numerators."""
    lc = den.ints[-1]
    if lc == den.den:
        return num, den
    return num.scale(Fraction(den.den, lc)), den.monic()


class RatFun:
    __slots__ = ("var", "base", "num", "den")

    def __init__(self, var, base, num, den, reduce=True):
        if base is not QQ:
            check_base(base)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            g = num.gcd(den)
            if g.degree() not in (None, 0):
                num = num // g
                den = den // g
            num, den = _monic(num, den)
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
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        one1, one2 = len(d1.ints) == 1, len(d2.ints) == 1
        if one1 or one2:
            # a denominator is 1, say d1, so (n1 d2 + n2) / d2 is reduced:
            # gcd(n1 d2 + n2, d2) = gcd(n2, d2) = 1
            t1 = n1 if one2 else n1 * d2
            t2 = n2 if one1 else n2 * d1
            t = t1 - t2 if sub else t1 + t2
            return RatFun(self.var, self.base, t, d2 if one1 else d1, reduce=False)
        if d1 == d2:
            t = n1 - n2 if sub else n1 + n2
            g = t.gcd(d1)
            if g.degree() in (None, 0):
                return RatFun(self.var, self.base, t, d1, reduce=False)
            return RatFun(self.var, self.base, t // g, d1 // g, reduce=False)
        g = d1.gcd(d2)
        if g.degree() in (None, 0):
            num = n1 * d2 - n2 * d1 if sub else n1 * d2 + n2 * d1
            return RatFun(self.var, self.base, num, d1 * d2, reduce=False)._monic()
        d2r = d2 // g
        t1 = n1 * d2r
        t2 = n2 * (d1 // g)
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
        num, den = _monic(self.num, self.den)
        if den is self.den:
            return self
        return RatFun(self.var, self.base, num, den, reduce=False)

    def __mul__(self, other):
        self._check(other)
        for c, f in ((self, other), (other, self)):
            if len(c.num.ints) <= 1 and len(c.den.ints) == 1:
                # a constant factor c: c f is reduced as f is
                return f._times(c.num.ints[0] if c else 0, c.num.den)
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
        """Multiply by a rational scalar."""
        return self._times(c.numerator, c.denominator)

    def _times(self, p, q):
        """Multiply by the rational p / q in lowest terms, q > 0.

        A nonzero constant changes neither gcd(num, den) nor the monic
        denominator, so the product is canonical without a gcd.
        """
        if not p:
            return RatFun.zero(self.var, self.base)
        if p == q:
            return self
        num = UniPoly.from_ints(self.var, [p * a for a in self.num.ints], q * self.num.den)
        return RatFun(self.var, self.base, num, self.den, reduce=False)

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
        check_base(base)
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
