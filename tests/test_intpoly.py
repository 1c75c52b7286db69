"""The integer-numerator polynomials and rational functions over Q
against the generic field tower (:mod:`field_tower`) over Q.

Every result must render the same, have the same rational coefficients
and be in canonical form: rebuilding it from its coefficients gives a
structurally equal value.  The negative control shows that structural
equality does see an unreduced form, so that canonical check is not
vacuous.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import field_tower
from triggaudin import poly
from triggaudin.poly import UniPoly
from triggaudin.rationals import QQ
from triggaudin.ratfun import FracField, RatFun

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
coeff_lists = st.lists(rationals, max_size=5)
points = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)])
POLES = (Fraction(1), Fraction(3), Fraction(-1, 2))


def pair(cs):
    return UniPoly("u", QQ, cs), field_tower.UniPoly("u", QQ, cs)


def same_poly(p, ref):
    assert repr(p) == repr(ref)
    assert p.coeffs == ref.coeffs
    assert p.degree() == ref.degree()
    assert p == UniPoly("u", QQ, ref.coeffs)


def same_ratfun(f, ref):
    assert repr(f) == repr(ref)
    same_poly(f.num, ref.num)
    same_poly(f.den, ref.den)


class TestUniPoly:
    @SETTINGS
    @given(coeff_lists, coeff_lists)
    def test_ring_operations(self, xs, ys):
        (a, ra), (b, rb) = pair(xs), pair(ys)
        same_poly(a, ra)
        same_poly(a + b, ra + rb)
        same_poly(a - b, ra - rb)
        same_poly(a * b, ra * rb)
        same_poly(-a, -ra)

    @SETTINGS
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_divmod_and_gcd(self, xs, ys, zs):
        (a, ra), (b, rb), (c, rc) = pair(xs), pair(ys), pair(zs)
        if b:
            q, r = a.divmod(b)
            rq, rr = ra.divmod(rb)
            same_poly(q, rq)
            same_poly(r, rr)
        # a common factor c makes the gcd nontrivial
        same_poly((a * c).gcd(b * c), (ra * rc).gcd(rb * rc))
        same_poly(a.gcd(b), ra.gcd(rb))
        same_poly(a.monic(), ra.monic())

    @SETTINGS
    @given(coeff_lists, rationals, points)
    def test_calculus_and_substitution(self, xs, c, x):
        a, ra = pair(xs)
        same_poly(a.derivative(), ra.derivative())
        same_poly(a.scale(c), ra.scale(c))
        same_poly(a.scale_var(x), ra.scale_var(x))
        same_poly(a.compose_shift(x), ra.compose_shift(x))
        assert a.eval(x) == ra.eval(x)
        assert a.valuation() == ra.valuation()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            UniPoly.gen("u", QQ).divmod(UniPoly.zero("u", QQ))


class TestCanonicalFormControl:
    """Negative control: the unreduced twin of a value is unequal to it."""

    @SETTINGS
    @given(coeff_lists, st.integers(min_value=2, max_value=9))
    def test_unreduced_twin_is_unequal(self, xs, k):
        a = UniPoly("u", QQ, xs)
        if not a:
            return
        twin = poly._raw("u", tuple(c * k for c in a.ints), a.den * k)
        assert twin.coeffs == a.coeffs  # the same polynomial over Q ...
        assert twin != a  # ... but not in canonical form
        assert poly._new("u", twin.ints, twin.den) == a


def ratfun_pair(num, den):
    return (
        RatFun("u", QQ, UniPoly("u", QQ, num), UniPoly("u", QQ, den)),
        field_tower.RatFun(
            "u", QQ, field_tower.UniPoly("u", QQ, num), field_tower.UniPoly("u", QQ, den)
        ),
    )


def pole_den(mults):
    """The coefficients of prod (u - a)^k over POLES and mults."""
    acc = field_tower.UniPoly.const("u", QQ, Fraction(1))
    for a, k in zip(POLES, mults):
        lin = field_tower.UniPoly("u", QQ, (-a, Fraction(1)))
        for _ in range(k):
            acc = acc * lin
    return acc.coeffs


mult_lists = st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3)
ratfuns = st.builds(
    lambda num, mults, c: ratfun_pair(num, [c * x for x in pole_den(mults)]),
    coeff_lists,
    mult_lists,
    rationals.filter(bool),
)


class TestRatFun:
    @SETTINGS
    @given(ratfuns, ratfuns)
    def test_field_operations(self, fx, gx):
        (f, rf), (g, rg) = fx, gx
        same_ratfun(f, rf)
        same_ratfun(f + g, rf + rg)
        same_ratfun(f - g, rf - rg)
        same_ratfun(f * g, rf * rg)
        if g:
            same_ratfun(f / g, rf / rg)
        same_ratfun(f.derivative(), rf.derivative())

    @SETTINGS
    @given(ratfuns, st.sampled_from(POLES + (Fraction(0), Fraction(2))))
    def test_local_expansions(self, fx, x):
        f, rf = fx
        assert f.expand_at(x, -2, 3) == rf.expand_at(x, -2, 3)
        part, coeffs = f.partial_fractions(POLES)
        rpart, rcoeffs = rf.partial_fractions(POLES)
        same_poly(part, rpart)
        assert coeffs == rcoeffs

    def test_other_bases_are_refused(self):
        Qq = field_tower.FracField("q", QQ)
        with pytest.raises(ValueError):
            FracField("u", Qq)
        with pytest.raises(ValueError):
            UniPoly("u", Qq, [Qq.one])
        one = UniPoly.const("u", QQ, QQ.one)
        with pytest.raises(ValueError):
            RatFun("u", Qq, one, one)


constants = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(0)])
polys = st.builds(lambda num: ratfun_pair(num, [Fraction(1)]), coeff_lists)
same_den = st.builds(
    lambda n1, n2, mults, c: (
        ratfun_pair(n1, [c * x for x in pole_den(mults)]),
        ratfun_pair(n2, [c * x for x in pole_den(mults)]),
    ),
    coeff_lists,
    coeff_lists,
    mult_lists,
    rationals.filter(bool),
)


class TestRatFunShortcuts:
    """The gcd-free paths of ``RatFun``: a constant factor, a denominator
    1 in a sum, equal denominators and ``scale``, each against the
    tower, which always takes the full path."""

    @SETTINGS
    @given(constants, ratfuns)
    def test_constant_factor(self, c, fx):
        (k, rk), (f, rf) = ratfun_pair([c], [Fraction(1)]), fx
        same_ratfun(k * f, rk * rf)
        same_ratfun(f * k, rf * rk)
        same_ratfun(k * k, rk * rk)
        same_ratfun(f.scale(c), rf.scale(c))

    @SETTINGS
    @given(polys, ratfuns)
    def test_denominator_one(self, px, fx):
        (p, rp), (f, rf) = px, fx
        for a, b, ra, rb in ((p, f, rp, rf), (f, p, rf, rp), (p, p, rp, rp)):
            same_ratfun(a + b, ra + rb)
            same_ratfun(a - b, ra - rb)
            same_ratfun(a * b, ra * rb)

    @SETTINGS
    @given(same_den)
    def test_equal_denominators(self, pair_):
        (f, rf), (g, rg) = pair_
        same_ratfun(f + g, rf + rg)
        same_ratfun(f - g, rf - rg)
        same_ratfun(f - f, rf - rf)

    def test_equal_denominators_cancel(self):
        (f, rf), (g, rg) = ratfun_pair([1], [-1, 1]), ratfun_pair([-2, 1], [-1, 1])
        one = FracField("u", QQ).one
        assert f + g == one
        same_ratfun(f + g, rf + rg)
        # negative control: the sum left unreduced is (u - 1)/(u - 1), and
        # a shortcut that skipped the reduction would give that instead
        unreduced = RatFun("u", QQ, f.num + g.num, f.den, reduce=False)
        assert unreduced != one
        assert unreduced.num == unreduced.den
