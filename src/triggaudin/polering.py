"""Q(u) localised at rational linear factors, on integers.

An element is num(u) / (den * prod_i (q_i u - p_i)^e_i): ``num`` is a
tuple of Python ints (lowest degree first, no trailing zero), ``den`` a
positive int and ``poles`` the sorted pairs ((p_i, q_i), e_i), one per
primitive factor q_i u - p_i (q_i > 0, gcd(p_i, q_i) = 1) with e_i > 0;
the factor u is (0, 1).  The form is canonical when the content of num
is coprime to den and num does not vanish at any pole, so structural
equality is mathematical equality and every element carries its own
poles: one ring serves every set of sites.

No polynomial gcd is taken anywhere.  The pole test is a homogeneous
integer evaluation sum_k c_k p^k q^(n-k), and a factor found there
comes off by exact synthetic division by q u - p (by Gauss's lemma the
quotient has integer coefficients).  A product only tests each
factor's numerator at the other factor's poles, a sum only the poles
at which both summands have the same exponent, and the derivative has
a closed form whose numerator vanishes at no pole.  A sum of products
(:meth:`PoleFun.dot`, one per entry of an operator product) is reduced
once: the raw products are added over common poles and a common
denominator, and the sum alone is tested at its poles and divided by
its content.  The ring's units are c * prod (q u - p)^k, so division is
only by those; any other divisor raises :class:`ArithmeticError`, as
:meth:`~triggaudin.laurent.Laurent.inverse` does.

Local expansions are integer Taylor series at a point: at a pole the
known factor is split off, the numerator is shifted to the point and
each other factor is expanded by the binomial series, so neither
:meth:`PoleFun.expand_at` nor :meth:`PoleFun.partial_fractions` divides
polynomials.  ``Fraction`` appears only where a coefficient is read
out: in those two methods and in the rendering, which is the rendering
of the equal reduced rational function with a monic denominator.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .rationals import normal_ints


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated or expanded at a
    pole in a context that does not allow Laurent data, or when a
    denominator factor falls outside a declared pole list."""


# -- integer polynomials, lowest degree first ---------------------------


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _vanishes(ints, p, q):
    """Whether the polynomial vanishes at p/q: sum c_k p^k q^(n-k) = 0."""
    if not p:
        return not ints[0]
    acc = ints[-1]
    if q == 1:
        for c in ints[-2::-1]:
            acc = acc * p + c
    else:
        qk = 1
        for c in ints[-2::-1]:
            qk *= q
            acc = acc * p + c * qk
    return not acc


def _div_linear(ints, p, q):
    """The exact quotient of the polynomial by q u - p, top term first."""
    out = [0] * (len(ints) - 1)
    b = 0
    for k in range(len(ints) - 1, 0, -1):
        b = ints[k] + p * b if q == 1 else (ints[k] + p * b) // q
        out[k - 1] = b
    return out


def _times_linear(ints, p, q, k=1):
    """The polynomial times (q u - p)^k."""
    for _ in range(k):
        out = [0] * (len(ints) + 1)
        for j, c in enumerate(ints):
            out[j] -= p * c
            out[j + 1] += q * c
        ints = out
    return ints


def _plus(a, b):
    """a + b, added into the longer of the two lists."""
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] += c
    return a


def _cancel(num, poles, only=None):
    """Cancel the pole factors that num contains (those keyed in ``only``,
    or all of them); returns the new num and the poles left."""
    out = []
    for key, e in poles:
        if only is None or key in only:
            p, q = key
            while e and _vanishes(num, p, q):
                num = _div_linear(num, p, q)
                e -= 1
            if not e:
                continue
        out.append((key, e))
    return num, tuple(out)


@lru_cache(maxsize=256)
def _pole_products(keys):
    """prod_i f_i and, for each i, prod_(j != i) f_j, for f_i = q_i u - p_i."""
    whole = [1]
    for p, q in keys:
        whole = _times_linear(whole, p, q)
    others = []
    for i in range(len(keys)):
        rest = [1]
        for j, (p, q) in enumerate(keys):
            if j != i:
                rest = _times_linear(rest, p, q)
        others.append(tuple(rest))
    return tuple(whole), tuple(others)


def _series(b, factors, order):
    """b(s) prod (w + c s)^(-e) up to s^order, as (ints, den).

    (w + c s)^(-e) = sum_k C(e+k-1, k) (-c)^k w^(-e-k) s^k, which is
    integral over w^(e+order) when truncated at s^order.
    """
    out = list(b[: order + 1]) + [0] * (order + 1 - len(b))
    den = 1
    for w, c, e in factors:
        ser = [
            comb(e + k - 1, k) * (-c) ** k * w ** (order - k) for k in range(order + 1)
        ]
        den *= w ** (e + order)
        out = [sum(out[j] * ser[k - j] for j in range(k + 1)) for k in range(order + 1)]
    return out, den


def _divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_root(ints):
    """A root p/q of a primitive polynomial with ints[0] != 0, or None.

    A root of multiplicity n is the mean of the roots, -a_(n-1) / (n a_n),
    which settles every c (q u - p)^n at once; otherwise the candidates
    of the rational root theorem are tried.
    """
    n = len(ints) - 1
    p, q = -ints[n - 1], n * ints[n]
    g = gcd(p, q)
    if _vanishes(ints, p // g, q // g):
        return p // g, q // g
    for q in _divisors(abs(ints[n])):
        for p in _divisors(abs(ints[0])):
            if gcd(p, q) == 1:
                for s in (p, -p):
                    if _vanishes(ints, s, q):
                        return s, q
    return None


def _linear_split(ints):
    """(c, {(p, q): k}) with ints = c prod (q u - p)^k, or None."""
    v = 0
    while not ints[v]:
        v += 1
    roots = {(0, 1): v} if v else {}
    rest = list(ints[v:])
    g = gcd(*rest)
    if rest[-1] < 0:
        g = -g
    rest = [c // g for c in rest]
    while len(rest) > 1:
        root = _rational_root(rest)
        if root is None:
            return None
        k = 0
        while len(rest) > 1 and _vanishes(rest, *root):
            rest = _div_linear(rest, *root)
            k += 1
        roots[root] = k
    return g, roots


def _render(var, ints, den):
    """The rendering of the polynomial ints / den, as ``UniPoly`` renders."""
    parts = []
    for k, c in enumerate(ints):
        if not c:
            continue
        c = Fraction(c, den)
        if k == 0:
            parts.append("(%s)" % (c,))
        elif k == 1:
            parts.append("(%s)*%s" % (c, var))
        else:
            parts.append("(%s)*%s^%d" % (c, var, k))
    return " + ".join(parts) if parts else "0"


def _key(point):
    point = Fraction(point)
    return point.numerator, point.denominator


# -- elements -----------------------------------------------------------


def _raw(ring, num, den, poles):
    f = object.__new__(PoleFun)
    f.ring = ring
    f.num = num
    f.den = den
    f.poles = poles
    return f


def _new(ring, num, den, poles):
    """num / (den prod poles) for a num that vanishes at no pole."""
    num, den = normal_ints(num, den)
    return _raw(ring, num, den, poles if num else ())


class PoleFun:
    __slots__ = ("ring", "num", "den", "poles")

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def _check(self, other):
        if type(other) is not PoleFun:
            raise TypeError("cannot combine PoleFun with %r" % type(other))
        if other.ring != self.ring:
            raise ValueError("ring mismatch: %r vs %r" % (self.ring, other.ring))

    def __eq__(self, other):
        if type(other) is not PoleFun:
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.poles == other.poles
            and (self.ring is other.ring or self.ring == other.ring)
        )

    def __hash__(self):
        return hash((self.num, self.den, self.poles))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not PoleFun or other.ring is not self.ring:
            self._check(other)
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        pa, pb = self.poles, other.poles
        if pa == pb:
            poles, same = pa, None
        else:
            # raise both to the larger exponent of every factor; the sum
            # can vanish only where both exponents were equal
            ea, eb = dict(pa), dict(pb)
            poles, same = [], set()
            for key in sorted(ea.keys() | eb.keys()):
                x, y = ea.get(key, 0), eb.get(key, 0)
                if x < y:
                    a = _times_linear(a, *key, y - x)
                elif y < x:
                    b = _times_linear(b, *key, x - y)
                else:
                    same.add(key)
                poles.append((key, max(x, y)))
        da, db = self.den, other.den
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
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        if not n:
            return self.ring.zero
        num, poles = _cancel(out[:n], poles, same)
        return _new(self.ring, num, da, poles)

    def __neg__(self):
        return _raw(self.ring, tuple([-c for c in self.num]), self.den, self.poles)

    def __sub__(self, other):
        return self + (-other)

    def _times(self, c, d):
        """Multiply by the nonzero rational c / d, d > 0: no pole moves."""
        if c == d:
            return self
        return _new(self.ring, [c * x for x in self.num], self.den * d, self.poles)

    def __mul__(self, other):
        if type(other) is not PoleFun or other.ring is not self.ring:
            self._check(other)
        a, b = self.num, other.num
        if not a or not b:
            return self.ring.zero
        pa, pb = self.poles, other.poles
        if len(b) == 1 and not pb:
            return self._times(b[0], other.den)
        if len(a) == 1 and not pa:
            return other._times(a[0], self.den)
        if pa == pb:
            # neither numerator vanishes at a shared pole
            poles = tuple([(key, e + e) for key, e in pa])
        else:
            # a numerator can vanish only at the other factor's own poles
            ka, kb = dict(pa), dict(pb)
            a, pb = _cancel(a, pb, kb.keys() - ka.keys())
            b, pa = _cancel(b, pa, ka.keys() - kb.keys())
            exps = dict(pa)
            for key, e in pb:
                exps[key] = exps.get(key, 0) + e
            poles = tuple(sorted(exps.items()))
        return _new(self.ring, _conv(a, b), self.den * other.den, poles)

    @staticmethod
    def dot(pairs):
        """sum v * w over the (v, w) pairs, all in one ring, as one element.

        Each product's numerator is formed raw, with its pole exponents
        added and nothing cancelled; the products are lifted to the
        largest exponent of every factor over the lcm of their
        denominators and added once, and the sum gets one full pole
        cancellation and one content reduction.
        """
        if len(pairs) == 1:
            ((v, w),) = pairs
            return v * w
        first = pairs[0][0]
        ring = first.ring
        terms = []
        for v, w in pairs:
            if type(v) is not PoleFun or v.ring is not ring:
                first._check(v)
            if type(w) is not PoleFun or w.ring is not ring:
                first._check(w)
            a, b = v.num, w.num
            if not a or not b:
                continue
            pa, pb = v.poles, w.poles
            if len(b) == 1 and not pb:
                c = b[0]
                num, poles = [c * x for x in a], pa
            elif len(a) == 1 and not pa:
                c = a[0]
                num, poles = [c * x for x in b], pb
            else:
                num = _conv(a, b)
                if not pb:
                    poles = pa
                elif not pa:
                    poles = pb
                elif pa == pb:
                    poles = tuple([(key, e + e) for key, e in pa])
                else:
                    exps = dict(pa)
                    for key, e in pb:
                        exps[key] = exps.get(key, 0) + e
                    poles = tuple(sorted(exps.items()))
            terms.append((num, v.den * w.den, poles))
        if not terms:
            return ring.zero
        den = lcm(*[d for _, d, _ in terms])
        # terms with the same poles are added before they are lifted
        groups = {}
        for num, d, poles in terms:
            f = den // d
            if f != 1:
                num = [c * f for c in num]
            acc = groups.get(poles)
            groups[poles] = num if acc is None else _plus(acc, num)
        top = {}
        for poles in groups:
            for key, e in poles:
                if top.get(key, 0) < e:
                    top[key] = e
        poles = tuple(sorted(top.items()))
        out = []
        for own, num in groups.items():
            if own != poles:
                exps = dict(own)
                for key, e in poles:
                    lift = e - exps.get(key, 0)
                    if lift:
                        num = _times_linear(num, *key, lift)
            out = _plus(out, num)
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        if not n:
            return ring.zero
        num, poles = _cancel(out[:n], poles)
        return _new(ring, num, den, poles)

    def scale(self, c):
        """Multiply by a rational scalar."""
        if not c:
            return self.ring.zero
        return self._times(c.numerator, c.denominator)

    def inverse(self):
        """Multiplicative inverse; only c * prod (q u - p)^k are units."""
        if not self.num:
            raise ZeroDivisionError("division by zero in %r" % self.ring)
        split = _linear_split(self.num)
        if split is None:
            raise ArithmeticError(
                "%r is not a unit of %r: its numerator does not split into "
                "rational linear factors" % (self, self.ring)
            )
        c, roots = split
        num = [self.den]
        for key, e in self.poles:
            num = _times_linear(num, *key, e)
        if c < 0:
            num, c = [-x for x in num], -c
        return _new(self.ring, num, c, tuple(sorted(roots.items())))

    def __truediv__(self, other):
        if type(other) is not PoleFun or other.ring is not self.ring:
            self._check(other)
        return self * other.inverse()

    def derivative(self):
        """The closed form (num' prod f_i - num sum e_i q_i prod_(j!=i) f_j)
        / (den prod f_i^(e_i+1)); its numerator vanishes at no pole."""
        a = self.num
        da = [k * a[k] for k in range(1, len(a))]
        if not self.poles:
            return _new(self.ring, da, self.den, ())
        keys = tuple([key for key, _ in self.poles])
        whole, others = _pole_products(keys)
        s = [0] * (len(whole) - 1)
        for (key, e), rest in zip(self.poles, others):
            w = e * key[1]
            for j, c in enumerate(rest):
                s[j] += w * c
        out = [-c for c in _conv(a, s)]
        if da:
            for j, c in enumerate(_conv(da, whole)):
                out[j] += c
        poles = tuple([(key, e + 1) for key, e in self.poles])
        return _new(self.ring, out, self.den, poles)

    # -- local expansions ---------------------------------------------

    def expand_at(self, point, min_order, max_order):
        """Laurent coefficients c_k of (u - point)^k, k = min_order..max_order.

        With point = p/q and s = q u - p, num(u) = b(s) / q^n for the
        integral Taylor shift b, and every other factor is
        q_j u - p_j = (w_j + q_j s) / q with w_j = q_j p - p_j q != 0.
        """
        if max_order < min_order:
            raise ValueError("max_order < min_order")
        if not self.num:
            return [Fraction(0)] * (max_order - min_order + 1)
        p, q = _key(point)
        a = self.num
        n = len(a) - 1
        b = [c * q ** (n - k) for k, c in enumerate(a)]
        for i in range(n):  # Taylor shift: b(y) -> b(y + p)
            for j in range(n - 1, i - 1, -1):
                b[j] += p * b[j + 1]
        v, factors, lift = 0, [], 1
        for (pj, qj), e in self.poles:
            if (pj, qj) == (p, q):
                v = e
            else:
                factors.append((qj * p - pj * q, qj, e))
                lift *= q ** e
        top = max_order + v
        ser, den = _series(b, factors, top) if top >= 0 else ([], 1)
        den *= q ** n * self.den
        out = []
        for k in range(min_order, max_order + 1):
            j = k + v  # f = s^-v lift ser(s) / den and s^k = q^k (u - point)^k
            if j < 0 or not ser[j]:
                out.append(Fraction(0))
            elif k >= 0:
                out.append(Fraction(ser[j] * lift * q ** k, den))
            else:
                out.append(Fraction(ser[j] * lift, den * q ** -k))
        return out

    def _polynomial_part(self):
        """The polynomial part as rationals, lowest degree first.

        With u = 1/s the element is s^(D-n) rev(s) / den times
        prod (q_i - p_i s)^(-e_i), D = sum e_i, so the part is the
        expansion at s = 0 up to s^(n-D).
        """
        a = self.num
        top = len(a) - 1 - sum(e for _, e in self.poles)
        if top < 0:
            return []
        factors = [(q, -p, e) for (p, q), e in self.poles]
        ser, den = _series(a[::-1], factors, top)
        den *= self.den
        return [Fraction(ser[top - d], den) for d in range(top + 1)]

    def partial_fractions(self, poles):
        """Decompose into a polynomial part plus pole contributions.

        Returns ``(poly_coeffs, {pole: [c_1, ..., c_m]})`` meaning
        f = sum_d poly_coeffs[d] u^d + sum_i sum_p c_p / (u - pole_i)^p.
        Every pole of f must be listed; an unlisted one raises
        :class:`PoleError` naming its factor.
        """
        listed = {_key(a): a for a in poles}
        for (p, q), _ in self.poles:
            if (p, q) not in listed:
                raise PoleError(
                    "denominator factor outside declared pole list: %s"
                    % _render(self.ring.var, [-p, q], 1)
                )
        exps = dict(self.poles)
        parts = {}
        for key, a in listed.items():
            e = exps.get(key)
            if e:
                lau = self.expand_at(a, -e, -1)
                parts[a] = [lau[e - p] for p in range(1, e + 1)]
        return self._polynomial_part(), parts

    def __repr__(self):
        var = self.ring.var
        if not self.poles:
            return "(%s)" % _render(var, self.num, self.den)
        # the monic denominator prod (u - p/q)^e = prod (q u - p)^e / prod q^e
        dints, lead = [1], 1
        for (p, q), e in self.poles:
            dints = _times_linear(dints, p, q, e)
            lead *= q ** e
        return "(%s)/(%s)" % (
            _render(var, self.num, self.den * lead),
            _render(var, dints, lead),
        )


class PoleRing:
    """Ring descriptor for Q(u) localised at rational linear factors."""

    def __init__(self, var):
        self.var = var
        self.zero = _raw(self, (), 1, ())
        self.one = _raw(self, (1,), 1, ())
        self.gen = _raw(self, (0, 1), 1, ())

    def from_int(self, n):
        return _raw(self, (n,) if n else (), 1, ())

    def from_ints(self, ints, den=1):
        """The polynomial (ints[0] + ints[1] u + ...) / den, for int
        numerators and a positive int den."""
        return _new(self, ints, den, ())

    def embed(self, c):
        """Lift a rational to a constant element."""
        c = Fraction(c)
        return _raw(self, (c.numerator,) if c else (), c.denominator, ())

    def __eq__(self, other):
        return isinstance(other, PoleRing) and self.var == other.var

    def __hash__(self):
        return hash(("PoleRing", self.var))

    def __repr__(self):
        return "QQ(%s)" % self.var
