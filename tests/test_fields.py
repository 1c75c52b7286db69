"""Exact scalar tower: rationals, polynomials, rational functions, series."""

import pytest
from hypothesis import given, settings, strategies as st

from triggaudin.poly import UniPoly
from triggaudin.rationals import QQ, parse_rational, rational
from triggaudin.ratfun import FracField, PoleError, RatFun
from triggaudin.series import QSeriesRing, SeriesRing, TruncSeries, TruncationError

import field_tower

F = FracField("u", QQ)
u = F.gen


# the eps-series rings over Q of a given order: generic and integer
EPS_RINGS = (lambda n: SeriesRing("eps", QQ, n), lambda n: QSeriesRing("eps", n))


def rat(p, q=1):
    return rational(p, q)


def format_rational(x):
    """Render a rational as ``"p/q"`` (always with a denominator)."""
    return "%d/%d" % (x.numerator, x.denominator)


def const(c):
    return F.embed(c)


class TestRationals:
    def test_parse_and_format(self):
        assert parse_rational("3/4") == rat(3, 4)
        assert parse_rational("-7") == rat(-7)
        assert format_rational(rat(3, 4)) == "3/4"
        assert format_rational(rat(5)) == "5/1"

    def test_reduction(self):
        assert rat(6, 4) == rat(3, 2)
        assert rat(-6, -4) == rat(3, 2)


def _euclid_gcd(a, b):
    """Monic gcd by the plain remainder sequence (the reference)."""
    while b:
        a, b = b, a % b
    return a.monic()


# polynomials over Q with their low coefficients often zero, so that
# monomials and powers of u turn up among the operands
low_polys = st.builds(
    lambda cs, k: UniPoly("u", QQ, [rat(c) for c in cs]).shift(k),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=4),
    st.integers(min_value=0, max_value=3),
)


class TestPolyGcd:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(low_polys, low_polys)
    def test_matches_plain_euclid(self, a, b):
        assert a.gcd(b) == _euclid_gcd(a, b)

    def test_monomial_operand(self):
        # gcd(3u^5, (u + 2)u^2) = u^2 and gcd((u + 2)u^2, -u) = u
        x = UniPoly.gen("u", QQ)
        p = (x + UniPoly.const("u", QQ, rat(2))).shift(2)
        assert x.shift(4).scale(rat(3)).gcd(p) == x.shift(1)
        assert p.gcd(x.scale(rat(-1))) == x


class TestRatFunArithmetic:
    def test_partial_fraction_of_sum(self):
        # 1/(1-u) + 1/(1+u) = 2/(1-u^2)
        a = F.one / (F.one - u)
        b = F.one / (F.one + u)
        c = F.from_int(2) / (F.one - u * u)
        assert a + b == c

    def test_gcd_cancellation(self):
        assert u / u == F.one

    def test_inverse_pair(self):
        x = u
        a = (F.one + x) / (F.one - x)
        b = (F.one - x) / (F.one + x)
        assert a * b == F.one

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F.one / F.zero

    def test_canonical_form(self):
        # monic denominator, reduced
        f = (u + F.one) / (u.scale(rat(2)) + F.from_int(2))
        assert f == F.embed(rat(1, 2))

    def test_derivative_examples(self):
        assert const(rat(5)).derivative() == F.zero
        assert (u * u).derivative() == u.scale(rat(2))
        g = F.one / (F.one - u)
        assert g.derivative() == F.one / ((F.one - u) * (F.one - u))


# random rational functions for property tests
coeffs = st.integers(min_value=-6, max_value=6)


def _poly(cs):
    return UniPoly("u", QQ, [rat(c) for c in cs])


ratfuns = st.builds(
    lambda nc, dc: RatFun("u", QQ, _poly(nc), _poly(dc + [1])),
    st.lists(coeffs, min_size=1, max_size=4),
    st.lists(coeffs, min_size=0, max_size=3),
)


class TestRatFunProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratfuns, ratfuns)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratfuns, ratfuns)
    def test_mul_div_roundtrip(self, a, b):
        if not b.is_zero():
            assert (a * b) / b == a

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratfuns, ratfuns)
    def test_leibniz(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratfuns)
    def test_canonical(self, a):
        assert a.den.leading() == QQ.one
        g = a.num.gcd(a.den)
        assert g.degree() in (None, 0)


class TestExpandAt:
    def test_simple_pole(self):
        a = rat(3)
        f = F.one / (u - const(a))
        assert f.expand_at(a, -1, 0) == [rat(1), rat(0)]

    def test_shifted_ratio_residue(self):
        # (a+u)/(a-u) at u=a has residue -2a
        a = rat(5)
        f = (const(a) + u) / (const(a) - u)
        assert f.residue_at(a) == rat(-10)

    def test_geometric(self):
        f = F.one / (F.one - u)
        assert f.expand_at(rat(0), 0, 3) == [rat(1)] * 4

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ratfuns)
    def test_taylor_matches(self, f):
        # Taylor coefficients at a non-pole reproduce f mod (u-p)^4
        p = rat(2)
        if not f.den.eval(p):
            return
        cs = f.expand_at(p, 0, 3)
        acc = F.zero
        shift = u - const(p)
        for k, c in enumerate(cs):
            acc = acc + (shift ** k).scale(c)
        diff = f - acc
        if not diff.is_zero():
            # (u-p)^4 must divide the numerator of the difference
            num = diff.num.compose_shift(p)
            assert num.valuation() >= 4


class TestPartialFractions:
    def test_two_simple_poles(self):
        f = F.one / ((u - F.one) * (u - F.from_int(3)))
        poly, parts = f.partial_fractions([rat(1), rat(3)])
        assert poly.is_zero()
        assert parts == {rat(1): [rat(-1, 2)], rat(3): [rat(1, 2)]}
        assert f.recombine_check(poly, parts)

    def test_pure_polynomial(self):
        f = u * u
        poly, parts = f.partial_fractions([rat(1)])
        assert parts == {}
        assert RatFun.from_poly(poly) == f

    def test_division_plus_residue(self):
        a = rat(4)
        f = (const(a) + u) / (const(a) - u)
        poly, parts = f.partial_fractions([a])
        assert RatFun.from_poly(poly) == const(rat(-1))
        assert parts == {a: [rat(-8)]}
        assert f.recombine_check(poly, parts)

    def test_unlisted_pole_rejected(self):
        f = F.one / (u - F.from_int(7))
        with pytest.raises(PoleError):
            f.partial_fractions([rat(1)])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(coeffs, min_size=1, max_size=4))
    def test_recombine_random(self, nc):
        den = (u - F.one) * (u - F.from_int(3)) * (u - F.from_int(3))
        f = RatFun.from_poly(_poly(nc)) / den
        poly, parts = f.partial_fractions([rat(1), rat(3)])
        assert f.recombine_check(poly, parts)


class TestTruncSeries:
    def test_beyond_order_is_error(self):
        s = TruncSeries("y", QQ, 2, [rat(1), rat(2)])
        assert s.coefficient(2) == rat(0)
        with pytest.raises(TruncationError):
            s.coefficient(3)

    def test_mul_truncates_to_min_order(self):
        a = TruncSeries("y", QQ, 4, [rat(1), rat(1)])
        b = TruncSeries("y", QQ, 2, [rat(1), rat(-1)])
        p = a * b
        assert p.order == 2
        assert [p.coefficient(k) for k in range(3)] == [rat(1), rat(0), rat(-1)]

    def test_invert_geometric(self):
        ring = SeriesRing("y", QQ, 5)
        s = ring.one - ring.gen
        inv = s.invert()
        assert [inv.coefficient(k) for k in range(6)] == [rat(1)] * 6
        assert s * inv == ring.one

    def test_derivative_loses_one_order(self):
        s = TruncSeries("y", QQ, 3, [rat(1), rat(1), rat(1), rat(1)])
        d = s.derivative()
        assert d.order == 2
        assert [d.coefficient(k) for k in range(3)] == [rat(1), rat(2), rat(3)]

    def test_hash_agrees_with_windowed_equality(self):
        a = TruncSeries("y", QQ, 1, [rat(1), rat(0)])
        b = TruncSeries("y", QQ, 2, [rat(1), rat(0), rat(1)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_scale_var(self):
        s = TruncSeries("y", QQ, 2, [rat(1), rat(1), rat(1)])
        t = s.scale_var(rat(2))
        assert [t.coefficient(k) for k in range(3)] == [rat(1), rat(2), rat(4)]

    def test_trailing_zero_keeps_its_truncation_order(self):
        # an eps-series with no known nonzero term, known to fewer orders
        # than the ring's zero, is not an exact zero: reading past its
        # order raises; a trailing zero known as far as E.zero is dropped;
        # the same for the generic and the integer-numerator eps-series
        for eps_ring in EPS_RINGS:
            E = eps_ring(3)
            short = eps_ring(0).zero
            s = TruncSeries("x", E, 2, [E.one, E.zero, short])
            with pytest.raises(TruncationError):
                s.coefficient(2).coefficient(1)
            assert TruncSeries("x", E, 2, [E.one, E.zero, E.zero]).coeffs == (E.one,)


def _yseries(cs, order=5):
    return TruncSeries("y", QQ, order, [rat(c) for c in cs])


series = st.lists(coeffs, min_size=0, max_size=6).map(_yseries)
units = st.lists(coeffs, min_size=0, max_size=5).flatmap(
    lambda cs: st.integers(min_value=1, max_value=6).map(lambda c0: [c0] + cs)
)


class TestTruncSeriesDivision:
    """Exact division by y^v * unit, and integer powers."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(series, units, st.integers(min_value=0, max_value=3))
    def test_mul_div_roundtrip(self, a, unit, v):
        b = _yseries([0] * v + unit)
        q = (a * b) / b
        assert q.order == min(a.order, b.order) - v
        assert q == a

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(units, units, st.integers(0, 2), st.integers(1, 2))
    def test_non_divisible_dividend_raises(self, a_unit, b_unit, j, gap):
        # a vanishes to order exactly j, b to order j + gap > j
        a = _yseries([0] * j + a_unit)
        b = _yseries([0] * (j + gap) + b_unit)
        with pytest.raises(ZeroDivisionError):
            a / b

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            _yseries([1]) / _yseries([])

    def test_dividend_beyond_its_order_is_a_truncation_error(self):
        with pytest.raises(TruncationError):
            _yseries([], order=1) / _yseries([0, 0, 0, 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(series, st.integers(min_value=0, max_value=5))
    def test_pow_is_repeated_product(self, a, k):
        want = SeriesRing("y", QQ, a.order).one
        for _ in range(k):
            want = want * a
        assert a ** k == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(units, st.integers(min_value=1, max_value=4))
    def test_negative_pow_is_inverse_power(self, unit, k):
        a = _yseries(unit)
        assert a ** -1 == a.invert()
        assert a ** -k == a.invert() ** k
        assert a ** -k * a ** k == SeriesRing("y", QQ, a.order).one


class TestTower:
    def test_bivariate_arithmetic(self):
        # Q(q)(u): coefficients are themselves rational functions
        Fq = field_tower.FracField("q", QQ)
        Fu = field_tower.FracField("u", Fq)
        q = Fu.embed(Fq.gen)
        uu = Fu.gen
        f = (q * uu - Fu.one) / (uu - Fu.one)
        g = f * (uu - Fu.one)
        assert g == q * uu - Fu.one
