"""Sparse Laurent polynomials over Q in a fixed tuple of variables.

An element is a finite sum of rational multiples of monomials
x_1^e_1 ... x_n^e_n whose exponents may be negative.  It is stored as
integer numerators over one positive int denominator,
{packed exponent: int} / den, with no zero numerator and the content
gcd of the numerators coprime to den.  That form is canonical, so
structural equality is mathematical equality.  Every product is
formed in one place, :meth:`Laurent.dot`, which sums the integer
convolutions of a list of pairs with one content reduction in all
(skipped when den is 1); ``a * b`` is its one-pair case, where a
monomial factor only shifts exponents.  Sums add numerators over a
common denominator, followed by one content reduction.
``Fraction`` appears only where a coefficient is read out: in
:attr:`Laurent.terms` and in the rendering.

Packed exponents: the exponent tuple (e_1, ..., e_n) is stored as the
one int sum_i e_i * 2^(32 (n - i)), digits in balanced form with the
first variable most significant.  Multiplying monomials adds their
packed ints, inverting negates it, and int order is tuple order, so
the rendering sorts the ints.  Tuples appear only at the boundary:
:meth:`LaurentRing.from_terms`, :attr:`Laurent.terms`, the rendering
and :meth:`LaurentRing.unpack`.  Packed keys alias once a digit reaches
half the stride, so every element carries ``bound``, an upper bound on
its largest |exponent|: the sum of the operands' bounds under ``*`` and
``dot``, their max under ``+``, k times the bound under ``** k``.  An
operation whose bound would reach half the stride raises
:class:`OverflowError` before it computes anything.

The ring Q[x_1^+-1, ..., x_n^+-1] is closed under +, - and *, and its
units are exactly the monomials c * x^e with c != 0.  Division is
therefore allowed only by a monomial; any other divisor raises
:class:`ArithmeticError` instead of leaving the ring.  There is no
polynomial gcd anywhere.  Because the ring is a subring of the
rational-function tower Q(x_1)...(x_n), an identity between Laurent
polynomials holds here exactly when it holds in the tower.
"""

from math import gcd, lcm

from .kernels import sparse_add
from .rationals import rational

# One digit of a packed exponent: the stride is 2^_SHIFT, and digits
# lie strictly between -_HALF and _HALF.
_SHIFT = 32
_HALF = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1


def _new(ring, ints, den):
    """The element ints / den for nonzero ints and a positive den.

    Its exponent bound is left unset; the caller sets it.
    """
    if den != 1:
        g = gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            den //= g
    return Laurent(ring, ints, den)


def _guard(bound):
    """``bound`` if packed exponents within it cannot alias."""
    if bound >= _HALF:
        raise OverflowError(
            "Laurent exponent bound %d reaches half the stride 2^%d"
            % (bound, _SHIFT)
        )
    return bound


def _bounded(x, bound):
    x.bound = bound
    return x


class Laurent:
    __slots__ = ("ring", "ints", "den", "bound")

    def __init__(self, ring, ints, den=1, bound=None):
        """The element ints / den; the parts must be in canonical form.

        ``bound`` bounds every |exponent| in ``ints``; the arithmetic
        sets it for every element it makes.
        """
        self.ring = ring
        self.ints = ints
        self.den = den
        self.bound = bound

    @property
    def terms(self):
        """{exponent tuple: rational coefficient}, without zeros."""
        d, unpack = self.den, self.ring.unpack
        return {unpack(e): rational(c, d) for e, c in self.ints.items()}

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
        out = _new(self.ring, sparse_add(a, b), da)
        return _bounded(out, max(self.bound, other.bound))

    def __neg__(self):
        return Laurent(
            self.ring, {e: -c for e, c in self.ints.items()}, self.den, self.bound
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Laurent.dot(((self, other),))

    @staticmethod
    def dot(pairs):
        """sum v * w over the (v, w) pairs, all in one ring, as one element.

        Every pair's convolution goes into one dict over the lcm of the
        pair denominators, and the sum gets one content reduction, not
        one per product and one per sum.  A lone product by a monomial
        only shifts the other factor's exponents, so no terms collide.
        """
        first = pairs[0][0]
        ring = first.ring
        bound = 0
        dens = []
        for v, w in pairs:
            if type(v) is not Laurent or v.ring is not ring:
                first._check(v)
            if type(w) is not Laurent or w.ring is not ring:
                first._check(w)
            if v.bound + w.bound > bound:
                bound = v.bound + w.bound
            dens.append(v.den * w.den)
        _guard(bound)
        if len(pairs) == 1:
            ((v, w),) = pairs
            a, b = v.ints, w.ints
            if len(a) < len(b):
                a, b = b, a
            if len(b) == 1:
                ((eb, cb),) = b.items()
                out = {e + eb: c * cb for e, c in a.items()}
                return _bounded(_new(ring, out, dens[0]), bound)
        den = lcm(*dens)
        out = {}
        for (v, w), d in zip(pairs, dens):
            f = den // d
            b = w.ints
            for ea, ca in v.ints.items():
                if f != 1:
                    ca *= f
                for eb, cb in b.items():
                    e = ea + eb
                    if e in out:
                        out[e] += ca * cb
                    else:
                        out[e] = ca * cb
        out = {e: c for e, c in out.items() if c}
        return _bounded(_new(ring, out, den), bound)

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
        return Laurent(self.ring, {-e: d}, abs(c), self.bound)

    def __truediv__(self, other):
        if type(other) is not Laurent or other.ring is not self.ring:
            self._check(other)
        return self * other.inverse()

    def scale_var(self, factor):
        """Substitute x_n -> factor * x_n in the last variable.

        ``factor`` must be a monomial free of x_n, so the substitution
        maps distinct monomials to distinct monomials and no terms
        merge.  A factor with coefficient 1 only moves exponents: the
        packed exponent e goes to e + k ef, with k the last digit of e.
        """
        if type(factor) is not Laurent or factor.ring is not self.ring:
            self._check(factor)
        if len(factor.ints) != 1:
            raise ArithmeticError("scale_var needs a monomial factor: %r" % factor)
        ((ef, p),) = factor.ints.items()
        if _last_digit(ef):
            raise ValueError("scale_var factor must not involve the scaled variable")
        ks = [_last_digit(e) for e in self.ints]
        bound = _guard(self.bound + max(map(abs, ks), default=0) * factor.bound)
        q = factor.den
        if not ks or p == q == 1:
            return Laurent(
                self.ring,
                {e + k * ef: c for (e, c), k in zip(self.ints.items(), ks)},
                self.den,
                bound,
            )
        # c (p/q)^k = c sign(p)^k |p|^(k-lo) q^(hi-k) / (|p|^-lo q^hi)
        # with lo = min(k, 0) and hi = max(k, 0) over the terms
        lo, hi = min(min(ks), 0), max(max(ks), 0)
        s = abs(p)
        out = {}
        for (e, c), k in zip(self.ints.items(), ks):
            if p < 0 and k & 1:
                c = -c
            out[e + k * ef] = c * s ** (k - lo) * q ** (hi - k)
        return _bounded(_new(self.ring, out, self.den * s ** -lo * q ** hi), bound)

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
                for v, k in zip(self.ring.names, self.ring.unpack(e))
                if k
            )
            c = rational(self.ints[e], self.den)
            parts.append("(%s)*%s" % (c, mono) if mono else "(%s)" % c)
        return " + ".join(parts)


def _last_digit(e):
    """The exponent of the last variable in the packed exponent e."""
    return ((e + _HALF) & _MASK) - _HALF


class LaurentRing:
    """Ring descriptor for Q[x_1^+-1, ..., x_n^+-1] in the named variables."""

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names) or not self.names:
            raise ValueError("need distinct variable names: %r" % (names,))
        n = len(self.names)
        self.zero = Laurent(self, {}, 1, 0)
        self.one = self.from_int(1)
        self.gens = tuple(
            Laurent(self, {1 << (_SHIFT * (n - 1 - i)): 1}, 1, 1) for i in range(n)
        )

    def pack(self, exponents):
        """The packed int of an exponent tuple."""
        if len(exponents) != len(self.names):
            raise ValueError("need %d exponents: %r" % (len(self.names), exponents))
        _guard(max(map(abs, exponents)))
        e = 0
        for d in exponents:
            e = (e << _SHIFT) + d
        return e

    def unpack(self, e):
        """The exponent tuple of a packed int."""
        out = []
        for _ in self.names:
            d = _last_digit(e)
            out.append(d)
            e = (e - d) >> _SHIFT
        return tuple(reversed(out))

    def from_int(self, n):
        return Laurent(self, {0: n} if n else {}, 1, 0)

    def from_terms(self, terms):
        """The element sum c x^e of {exponent tuple: rational c}."""
        terms = {e: c for e, c in terms.items() if c}
        den = lcm(*[c.denominator for c in terms.values()])
        bound = max([abs(d) for e in terms for d in e], default=0)
        out = _new(
            self,
            {
                self.pack(e): c.numerator * (den // c.denominator)
                for e, c in terms.items()
            },
            den,
        )
        return _bounded(out, bound)

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and self.names == other.names

    def __hash__(self):
        return hash(("LaurentRing", self.names))

    def __repr__(self):
        return "QQ[%s]" % ", ".join("%s^+-1" % v for v in self.names)
