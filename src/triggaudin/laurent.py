"""Sparse Laurent polynomials over Q in a fixed tuple of variables.

An element is a finite sum of rational multiples of monomials
x_1^e_1 ... x_n^e_n whose exponents may be negative; it is stored as
{exponent tuple: rational} with no zero coefficients, so structural
equality is mathematical equality and no normalisation is ever needed.

The ring Q[x_1^+-1, ..., x_n^+-1] is closed under +, - and *, and its
units are exactly the monomials c * x^e with c != 0.  Division is
therefore allowed only by a monomial; any other divisor raises
:class:`ArithmeticError` instead of leaving the ring.  There is no gcd
anywhere.  Because the ring is a subring of the rational-function tower
Q(x_1)...(x_n), an identity between Laurent polynomials holds here
exactly when it holds in the tower.
"""

from operator import add, neg

from .kernels import sparse_add
from .rationals import rational


class Laurent:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

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
            self.ring is other.ring or self.ring == other.ring
        ) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        return Laurent(self.ring, sparse_add(self.terms, other.terms))

    def __neg__(self):
        return Laurent(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # monomial factor: exponents shift, no two terms can collide
            ((eb, cb),) = b.items()
            return Laurent(
                self.ring, {tuple(map(add, e, eb)): c * cb for e, c in a.items()}
            )
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                if e in out:
                    out[e] = out[e] + ca * cb
                else:
                    out[e] = ca * cb
        return Laurent(self.ring, {e: c for e, c in out.items() if c})

    def inverse(self):
        """Multiplicative inverse; only monomials are units."""
        if len(self.terms) != 1:
            if not self.terms:
                raise ZeroDivisionError("division by zero Laurent polynomial")
            raise ArithmeticError(
                "%r is not a monomial, so it has no inverse in %r"
                % (self, self.ring)
            )
        ((e, c),) = self.terms.items()
        return Laurent(self.ring, {tuple(map(neg, e)): 1 / c})

    def __truediv__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        return self * other.inverse()

    def scale_var(self, factor):
        """Substitute x_n -> factor * x_n in the last variable.

        ``factor`` must be a monomial free of x_n, so the substitution
        maps distinct monomials to distinct monomials and no terms
        merge.
        """
        if type(factor) is not Laurent or factor.ring is not self.ring:
            self._check(factor)
        if len(factor.terms) != 1:
            raise ArithmeticError("scale_var needs a monomial factor: %r" % factor)
        ((ef, cf),) = factor.terms.items()
        if ef[-1]:
            raise ValueError("scale_var factor must not involve the scaled variable")
        out = {}
        for e, c in self.terms.items():
            k = e[-1]
            out[tuple(a + k * b for a, b in zip(e, ef))] = c * cf ** k
        return Laurent(self.ring, out)

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
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join(
                v if k == 1 else "%s^%d" % (v, k)
                for v, k in zip(self.ring.names, e)
                if k
            )
            c = self.terms[e]
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
            Laurent(self, {tuple(int(i == j) for j in range(n)): rational(1)})
            for i in range(n)
        )

    def from_int(self, n):
        return Laurent(self, {self._origin: rational(n)} if n else {})

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and self.names == other.names

    def __hash__(self):
        return hash(("LaurentRing", self.names))

    def __repr__(self):
        return "QQ[%s]" % ", ".join("%s^+-1" % v for v in self.names)
