"""The integer-numerator eps-series over Q against the generic
:class:`~triggaudin.series.TruncSeries` over QQ, its reference.

Every result must render the same, have the same truncation order and
rational coefficients, raise where the reference raises, and be in
canonical form: positive denominator, no trailing zero, and numerators
whose content is coprime to the denominator.  The negative controls
show that structural equality sees an unreduced form and that a series
with a skipped or partial content reduction fails these checks, so a
structural zero test cannot pass vacuously.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from triggaudin import series
from triggaudin.rationals import QQ, normal_ints
from triggaudin.series import QSeries, QSeriesRing, TruncSeries, TruncationError

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
units = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=4),
)
orders = st.integers(min_value=-1, max_value=6)


def to_q(r):
    """The QSeries in canonical form with the value of a TruncSeries r."""
    cs = r.coeffs
    den = lcm(*[c.denominator for c in cs]) if cs else 1
    ints = [c.numerator * (den // c.denominator) for c in cs]
    return QSeries(r.var, r.order, *normal_ints(ints, den))


def canonical(x):
    return (
        x.den > 0
        and (not x.ints or x.ints[-1] != 0)
        and gcd(x.den, *x.ints) == 1
        and len(x.ints) <= x.order + 1
    )


def agrees(x, r):
    """x renders like r, has r's order and coefficients and is canonical."""
    return (
        type(x) is QSeries
        and repr(x) == repr(r)
        and x.order == r.order
        and [x.coefficient(k) for k in range(x.order + 1)]
        == [r.coefficient(k) for k in range(r.order + 1)]
        and bool(x) == bool(r)
        and canonical(x)
        and x == to_q(r)
    )


def outcome(f):
    """f() or the type of the exception it raises."""
    try:
        return f()
    except (ZeroDivisionError, TruncationError) as exc:
        return type(exc)


def same_outcome(f, g):
    """f over QSeries and g over the reference give the same result or
    raise the same exception."""
    got, want = outcome(f), outcome(g)
    if isinstance(want, type):
        return got is want
    return agrees(got, want)


@st.composite
def pairs(draw, order=orders, coeffs=rationals, min_size=0):
    """A drawn eps-series and its reference."""
    n = draw(order)
    cs = draw(st.lists(coeffs, min_size=min_size, max_size=7))
    r = TruncSeries("eps", QQ, n, cs)
    return to_q(r), r


@st.composite
def divisors(draw):
    """eps^v * unit over both rings, v <= 3, with its reference."""
    v = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=v, max_value=7))
    unit = [draw(units)] + draw(st.lists(rationals, max_size=4))
    r = TruncSeries("eps", QQ, n, [QQ.zero] * v + unit)
    return to_q(r), r


class TestAgainstReference:
    @SETTINGS
    @given(pairs(), pairs())
    def test_ring_operations(self, pa, pb):
        (a, ra), (b, rb) = pa, pb
        assert agrees(a, ra)
        assert agrees(a + b, ra + rb)
        assert agrees(a - b, ra - rb)
        assert agrees(a * b, ra * rb)
        assert agrees(-a, -ra)
        assert (a == b) == (ra == rb)
        assert (a == a + b) == (ra == ra + rb)

    @SETTINGS
    @given(pairs(), rationals)
    def test_scale(self, pa, c):
        a, ra = pa
        assert agrees(a.scale(c), ra.scale(c))
        assert agrees(a.scale(int(c)), ra.scale(Fraction(int(c))))

    @SETTINGS
    @given(pairs(), st.integers(min_value=-2, max_value=8))
    def test_coefficient(self, pa, k):
        a, ra = pa
        assert outcome(lambda: a.coefficient(k)) == outcome(lambda: ra.coefficient(k))

    @SETTINGS
    @given(pairs(), divisors())
    def test_division(self, pa, pb):
        # any dividend: a quotient, or the reference's ZeroDivisionError
        # or TruncationError
        (a, ra), (b, rb) = pa, pb
        assert same_outcome(lambda: a / b, lambda: ra / rb)
        # a dividend that vanishes to order v: the exact quotient
        assert same_outcome(lambda: (a * b) / b, lambda: (ra * rb) / rb)

    @SETTINGS
    @given(pairs(), pairs())
    def test_division_by_any_series(self, pa, pb):
        (a, ra), (b, rb) = pa, pb
        assert same_outcome(lambda: a / b, lambda: ra / rb)

    @SETTINGS
    @given(pairs(), st.integers(min_value=-4, max_value=4))
    def test_invert_and_powers(self, pa, k):
        a, ra = pa
        assert same_outcome(a.invert, ra.invert)
        assert same_outcome(lambda: a ** k, lambda: ra ** k)

    @SETTINGS
    @given(pairs(order=st.integers(min_value=0, max_value=6), coeffs=units, min_size=1))
    def test_unit_inverse(self, pa):
        a, ra = pa
        assert agrees(a.invert(), ra.invert())
        assert a * a.invert() == QSeriesRing("eps", a.order).one

    def test_ring_constants(self):
        for n in (-1, 0, 1, 4):
            E, R = QSeriesRing("eps", n), series.SeriesRing("eps", QQ, n)
            for x, r in ((E.zero, R.zero), (E.one, R.one), (E.gen, R.gen)):
                assert agrees(x, r)
            assert agrees(E.from_int(-3), R.from_int(-3))
        assert QSeriesRing("eps", 3) == QSeriesRing("eps", 3)
        assert QSeriesRing("eps", 3) != QSeriesRing("eps", 4)
        assert QSeriesRing("eps", 3) != series.SeriesRing("eps", QQ, 3)

    def test_windowed_equality_and_hash(self):
        # 1 + 0 eps known to order 1 equals 1 + eps^2 known to order 2
        a = QSeries("eps", 1, (1,), 1)
        b = QSeries("eps", 2, (1, 0, 1), 1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        # a cut whose content shrinks: (2 + 2 eps + eps^2) / 2 to order 1
        c = QSeries("eps", 2, (2, 2, 1), 2)
        assert c == QSeries("eps", 1, (1, 1), 1)
        assert c != QSeries("eps", 1, (1, 2), 1)

    def test_mismatched_operands_raise(self):
        a = QSeriesRing("eps", 2).gen
        with pytest.raises(ValueError):
            a + QSeriesRing("delta", 2).gen
        with pytest.raises(TypeError):
            a * series.SeriesRing("eps", QQ, 2).gen


class TestNegativeControl:
    """The content reduction is what makes structural equality sound."""

    def test_unreduced_twin_is_unequal(self):
        E = QSeriesRing("eps", 3)
        x = E.one + E.gen
        half = QSeries("eps", 3, (1,), 2)
        assert (x.scale(2)) * half == x
        twin = QSeries("eps", 3, (2, 2), 2)  # (2 + 2 eps) / 2, not reduced
        assert [twin.coefficient(k) for k in range(4)] == [
            x.coefficient(k) for k in range(4)
        ]  # the same series over Q ...
        assert twin != x  # ... but not in canonical form
        assert series._new("eps", 3, twin.ints, twin.den) == x

    @staticmethod
    def _skip_reduction(var, order, ints, den):
        ints = tuple(ints[: order + 1])
        while ints and not ints[-1]:
            ints = ints[:-1]
        return QSeries(var, order, ints, den)

    @staticmethod
    def _first_term_gcd(var, order, ints, den):
        ints, _ = normal_ints(ints[: order + 1], 1)
        g = gcd(den, next((c for c in ints if c), 0))
        return QSeries(var, order, tuple(c // g for c in ints), den // g)

    @pytest.mark.parametrize("broken", ["_skip_reduction", "_first_term_gcd"])
    def test_broken_reduction_is_caught(self, monkeypatch, broken):
        R = series.SeriesRing("eps", QQ, 4)
        E = QSeriesRing("eps", 4)
        half, rhalf = QSeries("eps", 4, (1,), 2), R.one.scale(Fraction(1, 2))
        two, rtwo = E.from_int(2), R.from_int(2)
        x, rx = E.one + E.gen, R.one + R.gen
        y, ry = two + E.gen, rtwo + R.gen
        monkeypatch.setattr(series, "_new", getattr(self, broken))
        # (2 (1 + eps)) (1/2) = 1 + eps, and (2 + eps) (1/2) = 1 + eps/2
        cases = [
            ((two * x) * half, (rtwo * rx) * rhalf),
            (y * half, ry * rhalf),
            (half + half, rhalf + rhalf),
            (x.scale(Fraction(2, 3)).scale(Fraction(3, 2)), rx),
            ((two * x) / two, (rtwo * rx) / rtwo),
        ]
        assert not all(agrees(got, want) for got, want in cases)


def test_arithmetic_builds_no_fraction(monkeypatch):
    E = QSeriesRing("eps", 6)
    q = E.one + E.gen
    third = q.scale(Fraction(1, 3))
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    w = q ** 3 - q ** -3
    results = [w + third, w - third, w * third, w / E.gen, w * w / E.gen ** 2]
    results += [third ** -4, third.invert(), third.scale(7), hash(w), w == third]
    assert not made
    w.coefficient(1)  # a read-out does build one, so the count is not vacuous
    assert len(made) == 1
