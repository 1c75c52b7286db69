"""Sparse Laurent polynomials over Q in a fixed tuple of variables.

An element is a finite sum of rational multiples of monomials
x_1^e_1 ... x_n^e_n whose exponents may be negative.  It is stored as
integer numerators over one positive int denominator,
{exponent tuple: int} / den, with no zero numerator and the content
gcd of the numerators coprime to den.  That form is canonical, so
structural equality is mathematical equality.  Products are integer
convolutions and sums add numerators over a common denominator, each
followed by one content reduction (skipped when den is 1).
``Fraction`` appears only where a coefficient is read out: in
:attr:`Laurent.terms` and in the rendering.

The ring Q[x_1^+-1, ..., x_n^+-1] is closed under +, - and *, and its
units are exactly the monomials c * x^e with c != 0.  Division is
therefore allowed only by a monomial; any other divisor raises
:class:`ArithmeticError` instead of leaving the ring.  There is no
polynomial gcd anywhere.  Because the ring is a subring of the
rational-function tower Q(x_1)...(x_n), an identity between Laurent
polynomials holds here exactly when it holds in the tower.
"""

from math import gcd, lcm
from operator import add, neg

from .kernels import sparse_add
from .rationals import rational


def _new(ring, ints, den):
    """The element ints / den for nonzero ints and a positive den."""
    if den != 1:
        g = gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            den //= g
    return Laurent(ring, ints, den)


class Laurent:
    __slots__ = ("ring", "ints", "den")

    def __init__(self, ring, ints, den=1):
        """The element ints / den; the parts must be in canonical form."""
        self.ring = ring
        self.ints = ints
        self.den = den

    @property
    def terms(self):
        """{exponent tuple: rational coefficient}, without zeros."""
        d = self.den
        return {e: rational(c, d) for e, c in self.ints.items()}

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def _check(self, other):
        if not isinstance(other, Laurent):
            raise TypeError("cannot combine Laurent with %r" % type(other))
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(
                "Laurent ring mismatch: %r vs %r" % (self.ring, other.ring)
            )

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring == other.ring)
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.ints.items()), self.den))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        a, da, b, db = self.ints, self.den, other.ints, other.den
        if not b:
            return self
        if not a:
            return other
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            a = {e: c * fa for e, c in a.items()}
            b = {e: c * fb for e, c in b.items()}
            da *= fa
        return _new(self.ring, sparse_add(a, b), da)

    def __neg__(self):
        return Laurent(self.ring, {e: -c for e, c in self.ints.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # monomial factor: exponents shift, no two terms can collide
            ((eb, cb),) = b.items()
            out = {tuple(map(add, e, eb)): c * cb for e, c in a.items()}
        else:
            out = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = tuple(map(add, ea, eb))
                    if e in out:
                        out[e] += ca * cb
                    else:
                        out[e] = ca * cb
            out = {e: c for e, c in out.items() if c}
        return _new(self.ring, out, self.den * other.den)

    def inverse(self):
        """Multiplicative inverse; only monomials are units."""
        if len(self.ints) != 1:
            if not self.ints:
                raise ZeroDivisionError("division by zero Laurent polynomial")
            raise ArithmeticError(
                "%r is not a monomial, so it has no inverse in %r"
                % (self, self.ring)
            )
        ((e, c),) = self.ints.items()
        # (c / d) x^e has inverse sign(c) d / |c| x^-e, already reduced
        d = -self.den if c < 0 else self.den
        return Laurent(self.ring, {tuple(map(neg, e)): d}, abs(c))

    def __truediv__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        return self * other.inverse()

    def scale_var(self, factor):
        """Substitute x_n -> factor * x_n in the last variable.

        ``factor`` must be a monomial free of x_n, so the substitution
        maps distinct monomials to distinct monomials and no terms
        merge.  A factor with coefficient 1 only moves exponents.
        """
        if type(factor) is not Laurent or factor.ring is not self.ring:
            self._check(factor)
        if len(factor.ints) != 1:
            raise ArithmeticError("scale_var needs a monomial factor: %r" % factor)
        ((ef, p),) = factor.ints.items()
        if ef[-1]:
            raise ValueError("scale_var factor must not involve the scaled variable")

        def moved(e):
            k = e[-1]
            return tuple([a + k * b for a, b in zip(e, ef)])

        q = factor.den
        if not self.ints or p == q == 1:
            return Laurent(
                self.ring, {moved(e): c for e, c in self.ints.items()}, self.den
            )
        # c (p/q)^k = c sign(p)^k |p|^(k-lo) q^(hi-k) / (|p|^-lo q^hi)
        # with lo = min(k, 0) and hi = max(k, 0) over the terms
        ks = [e[-1] for e in self.ints]
        lo, hi = min(min(ks), 0), max(max(ks), 0)
        s = abs(p)
        out = {}
        for e, c in self.ints.items():
            k = e[-1]
            if p < 0 and k & 1:
                c = -c
            out[moved(e)] = c * s ** (k - lo) * q ** (hi - k)
        return _new(self.ring, out, self.den * s ** -lo * q ** hi)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring.one
        b = self
        while k:
            if k & 1:
                out = out * b
            k >>= 1
            if k:
                b = b * b
        return out

    def __repr__(self):
        if not self.ints:
            return "0"
        parts = []
        for e in sorted(self.ints):
            mono = "*".join(
                v if k == 1 else "%s^%d" % (v, k)
                for v, k in zip(self.ring.names, e)
                if k
            )
            c = rational(self.ints[e], self.den)
            parts.append("(%s)*%s" % (c, mono) if mono else "(%s)" % c)
        return " + ".join(parts)


class LaurentRing:
    """Ring descriptor for Q[x_1^+-1, ..., x_n^+-1] in the named variables."""

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names) or not self.names:
            raise ValueError("need distinct variable names: %r" % (names,))
        n = len(self.names)
        self._origin = (0,) * n
        self.zero = Laurent(self, {})
        self.one = self.from_int(1)
        self.gens = tuple(
            Laurent(self, {tuple(int(i == j) for j in range(n)): 1})
            for i in range(n)
        )

    def from_int(self, n):
        return Laurent(self, {self._origin: n} if n else {})

    def from_terms(self, terms):
        """The element sum c x^e of {exponent tuple: rational c}."""
        terms = {e: c for e, c in terms.items() if c}
        den = lcm(*[c.denominator for c in terms.values()])
        return _new(
            self,
            {e: c.numerator * (den // c.denominator) for e, c in terms.items()},
            den,
        )

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and self.names == other.names

    def __hash__(self):
        return hash(("LaurentRing", self.names))

    def __repr__(self):
        return "QQ[%s]" % ", ".join("%s^+-1" % v for v in self.names)
