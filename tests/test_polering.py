"""The pole-localised ring of Q(u) against the reduced rational functions.

Every value of :mod:`triggaudin.polering` is compared with the
:class:`~triggaudin.ratfun.RatFun` built by the same operations: the
two must be the same rational function, render the same, and expand
the same.  The ring's own form must be canonical (content coprime to
den, primitive pole factors, a numerator that vanishes at no pole);
the negative controls show that equality fails without the pole test,
so the canonical check is not vacuous.  The theta routes on the ring
are compared with the same routes over a current built from
``RatFun`` entries, which is how the classical side was computed
before the ring existed.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from triggaudin import gaudin, polering
from triggaudin.gaudin import Qu
from triggaudin.poly import UniPoly
from triggaudin.polering import PoleError, PoleFun
from triggaudin.rationals import QQ
from triggaudin.ratfun import FracField, RatFun
from triggaudin.rmatrices import r_classical
from triggaudin.tensor import AuxTensor

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

F = FracField("u", QQ)

# poles at 0, at integers of both signs and at fractions of both signs
POLES = (Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2), Fraction(-2, 3))
REGULAR = (Fraction(5), Fraction(-1, 7))


def to_ratfun(f):
    """The reduced rational function that the ring's parts denote."""
    den = [1]
    for (p, q), e in f.poles:
        den = polering._times_linear(den, p, q, e)
    num = UniPoly.from_ints("u", list(f.num), f.den)
    return RatFun("u", QQ, num, UniPoly.from_ints("u", den))


def canonical(f):
    """The ring's form of f is canonical."""
    if not f.num:
        return f.den == 1 and f.poles == ()
    keys = [key for key, _ in f.poles]
    return (
        f.den > 0
        and f.num[-1] != 0
        and gcd(f.den, *f.num) == 1
        and keys == sorted(set(keys))
        and all(q > 0 and gcd(p, q) == 1 and e > 0 for (p, q), e in f.poles)
        and not any(polering._vanishes(f.num, p, q) for p, q in keys)
    )


def same(f, ref):
    assert canonical(f)
    assert to_ratfun(f) == ref
    assert repr(f) == repr(ref)


def linear(a):
    """u - a in both rings."""
    return Qu.gen - Qu.embed(a), F.gen - F.embed(a)


def build(coeffs, exps, c):
    """c * (sum_k coeffs[k] u^k) * prod_a (u - a)^exps[a] in both rings.

    Negative exponents make poles; positive ones put the same factors
    into the numerator, so products and sums cancel against poles.
    """
    f, g = Qu.zero, F.zero
    x, y = Qu.one, F.one
    for k in coeffs:
        f, g = f + x.scale(k), g + y.scale(k)
        x, y = x * Qu.gen, y * F.gen
    if not coeffs:
        f, g = Qu.one, F.one
    for a, e in zip(POLES, exps):
        lf, lg = linear(a)
        for _ in range(abs(e)):
            if e > 0:
                f, g = f * lf, g * lg
            else:
                f, g = f / lf, g / lg
    return f.scale(c), g.scale(c)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
exponents = st.lists(st.integers(-2, 2), min_size=len(POLES), max_size=len(POLES))
elements = st.builds(build, st.lists(rationals, max_size=4), exponents, nonzero)
# c * prod (u - a)^k: the ring's units
units = st.builds(build, st.just([]), exponents, nonzero)


class TestAgainstRatFun:
    @SETTINGS
    @given(elements, elements)
    def test_ring_operations(self, fx, gx):
        (f, rf), (g, rg) = fx, gx
        same(f, rf)
        same(f + g, rf + rg)
        same(f - g, rf - rg)
        same(f * g, rf * rg)
        same(-f, -rf)
        same(f - f, rf - rf)

    @SETTINGS
    @given(elements, nonzero)
    def test_derivative_and_scale(self, fx, c):
        f, rf = fx
        same(f.derivative(), rf.derivative())
        same(f.derivative().derivative(), rf.derivative().derivative())
        same(f.scale(c), rf.scale(c))

    @SETTINGS
    @given(elements, units)
    def test_unit_division(self, fx, ux):
        (f, rf), (v, rv) = fx, ux
        same(f / v, rf / rv)
        same(v.inverse(), F.one / rv)
        assert v * v.inverse() == Qu.one

    @SETTINGS
    @given(elements, st.sampled_from(POLES + REGULAR))
    def test_expand_at(self, fx, point):
        f, rf = fx
        assert f.expand_at(point, -3, 3) == rf.expand_at(point, -3, 3)

    @SETTINGS
    @given(elements)
    def test_partial_fractions(self, fx):
        f, rf = fx
        poly, parts = f.partial_fractions(list(POLES))
        rpoly, rparts = rf.partial_fractions(list(POLES))
        assert poly == list(rpoly.coeffs)
        assert parts == rparts
        assert list(parts) == [a for a in POLES if a in parts]

    def test_renders_like_ratfun(self):
        (f, rf), (g, rg) = linear(Fraction(-2, 3)), linear(Fraction(0))
        cases = [
            (Qu.zero, F.zero),
            (Qu.from_int(-3), F.from_int(-3)),
            (Qu.one / (f * g), F.one / (rf * rg)),
            ((f * f).scale(Fraction(5, 2)) / g, (rf * rf).scale(Fraction(5, 2)) / rg),
        ]
        for mine, ref in cases:
            assert repr(mine) == repr(ref)
        assert repr(Qu.one / g) == "((1))/((1)*u)"


class TestUnits:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [1, 0, 1],  # u^2 + 1
            [-2, 0, 1],  # u^2 - 2
            [0, 0, 1, 1, 1],  # u^2 (u^2 + u + 1)
            [-1, 0, 0, 1],  # u^3 - 1 = (u - 1)(u^2 + u + 1)
            [-3, 1, 2, 1],  # no rational root
        ],
    )
    def test_division_by_a_non_unit_raises(self, coeffs):
        x, power = Qu.zero, Qu.one
        for c in coeffs:
            x, power = x + power.scale(Fraction(c)), power * Qu.gen
        with pytest.raises(ArithmeticError):
            Qu.one / x

    def test_units_with_several_factors(self):
        # (2u - 1)(u + 3)^2 u / 7 is a unit; its inverse has three poles
        three = Qu.gen + Qu.from_int(3)
        x = (Qu.gen.scale(Fraction(2)) - Qu.one) * three * three
        x = x * Qu.gen.scale(Fraction(1, 7))
        inv = Qu.one / x
        assert inv.poles == (((-3, 1), 2), ((0, 1), 1), ((1, 2), 1))
        assert inv * x == Qu.one

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Qu.one / Qu.zero

    def test_undeclared_pole_raises(self):
        f = Qu.one / linear(Fraction(1, 2))[0]
        with pytest.raises(PoleError):
            f.partial_fractions([Fraction(1)])

    def test_one_ring_for_every_set_of_sites(self):
        # theta_2 at moved points minus theta_2 at the first points: one
        # ring holds both, and the difference is not zero
        a = gaudin.theta_mbar(gaudin.GaudinRep(2, [Fraction(1, 2), Fraction(3)]), 2)
        moved = gaudin.GaudinRep(2, [Fraction(1, 2), Fraction(4)])
        b = gaudin.theta_generating(moved, 2)
        assert not (a - b).is_zero()


class TestNegativeControls:
    """Without the pole test, equal values compare unequal."""

    @staticmethod
    def _skip_pole_test(monkeypatch):
        def keep_every_pole(num, poles, only=None):
            return num, tuple(poles)

        monkeypatch.setattr(polering, "_cancel", keep_every_pole)

    def test_product_with_the_inverse(self, monkeypatch):
        for a in POLES:
            x = linear(a)[0]
            assert x * (Qu.one / x) == Qu.one
            self._skip_pole_test(monkeypatch)
            assert x * (Qu.one / x) != Qu.one
            monkeypatch.undo()

    def test_sum_over_one_pole(self, monkeypatch):
        # u / (u - 1) - 1 / (u - 1) = 1
        inv = Qu.one / linear(Fraction(1))[0]
        assert Qu.gen * inv - inv == Qu.one
        self._skip_pole_test(monkeypatch)
        assert Qu.gen * inv - inv != Qu.one


def fold(pairs):
    """sum v * w, one product and one sum at a time."""
    out = Qu.zero
    for v, w in pairs:
        out = out + v * w
    return out


ring_elements = elements.map(lambda fx: fx[0])


class TestDot:
    """``PoleFun.dot`` against the running sum of ``v * w``."""

    @SETTINGS
    @given(st.lists(st.tuples(ring_elements, ring_elements), min_size=1, max_size=5))
    def test_dot_equals_the_pairwise_fold(self, pairs):
        got = PoleFun.dot(pairs)
        assert got == fold(pairs) and canonical(got)

    def test_cases(self):
        u = Qu.gen
        inv1 = Qu.one / linear(Fraction(1))[0]
        inv3 = Qu.one / linear(Fraction(-3))[0]
        inv_half = Qu.one / linear(Fraction(1, 2))[0]
        third = Qu.embed(Fraction(1, 3))
        x = (u + Qu.from_int(2)) * inv1 * inv3
        cases = {
            "shared": [(inv1, inv1), (u, inv1 * inv1), (inv1, x)],
            "disjoint": [(inv1, inv3), (inv_half, u), (x, inv_half)],
            # u - 1 vanishes at the other factor's pole
            "vanishing": [(u - Qu.one, inv1 * inv1), (u - Qu.one, inv1 * inv3)],
            # 1/(u-1) + (u-2)/(u-1) = 1
            "cancel-pole": [(inv1, Qu.one), (u - Qu.from_int(2), inv1)],
            "cancel-zero": [(x, inv_half), (-x, inv_half), (inv1, u), (u, -inv1)],
            "constants": [(third, x), (x, Qu.from_int(-2)), (third, third)],
            "zero-factors": [(Qu.zero, x), (x, Qu.zero), (inv1, Qu.one)],
            "single": [(x, inv_half)],
        }
        for name, pairs in cases.items():
            got = PoleFun.dot(pairs)
            assert got == fold(pairs) and canonical(got), name
        assert PoleFun.dot(cases["cancel-pole"]) == Qu.one
        assert PoleFun.dot(cases["cancel-zero"]) == Qu.zero
        assert PoleFun.dot(cases["single"]) == x * inv_half

    def test_mismatch_raises_as_mul_does(self):
        other = polering.PoleRing("v")
        for foreign, error in ((other.gen, ValueError), (Fraction(1), TypeError)):
            with pytest.raises(error):
                Qu.gen * foreign
            for pairs in (
                [(Qu.gen, foreign), (Qu.one, Qu.one)],
                [(Qu.gen, Qu.one), (foreign, Qu.one)],
                [(Qu.gen, Qu.one), (Qu.one, foreign)],
            ):
                with pytest.raises(error):
                    PoleFun.dot(pairs)

    def test_uncancelled_dot_is_unequal(self, monkeypatch):
        # negative control: without the final pole cancellation the sum
        # is the same rational function, not in canonical form
        inv1 = Qu.one / linear(Fraction(1))[0]
        pairs = [(inv1, Qu.one), (Qu.gen - Qu.from_int(2), inv1)]
        reduced = PoleFun.dot(pairs)
        monkeypatch.setattr(polering, "_cancel", lambda num, poles: (num, poles))
        skipped = PoleFun.dot(pairs)
        assert to_ratfun(skipped) == to_ratfun(reduced)  # the same function ...
        assert skipped != reduced  # ... not in canonical form
        assert reduced == Qu.one


# -- the theta routes against a current of RatFun entries -----------------


def ratfun_current(rep):
    """L(u) = sum_i r_{0i}(u/a_i) over the reduced rational functions."""
    space = rep.current_space()
    out = AuxTensor.zero(space, F)
    for i, a in enumerate(rep.points):
        r = r_classical(rep.N, F, F.gen.scale(QQ.one / a))
        out = out + r.place(space, "z0", "s%d" % (i + 1))
    return out


def same_tensor(t, ref):
    assert sorted(t.entries) == sorted(ref.entries)
    for key, v in t.entries.items():
        same(v, ref.entries[key])


def same_operator(op, ref):
    assert sorted(op.coeffs) == sorted(ref.coeffs)
    for k, t in op.coeffs.items():
        same_tensor(t, ref.coeffs[k])


THETA_CASES = [
    (2, (Fraction(1, 2),), 4),
    (2, (Fraction(1, 2), Fraction(-3)), 4),
    (2, (Fraction(1, 2), Fraction(-3), Fraction(2)), 4),
    (3, (Fraction(-3),), 4),
    (3, (Fraction(1, 2), Fraction(-3)), 4),
]


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize(
    "N, points, m_max",
    [pytest.param(*c, id="N%d-l%d-m%d" % (c[0], len(c[1]), c[2])) for c in THETA_CASES],
)
def test_theta_routes_match_the_ratfun_current(N, points, m_max, shifted):
    rep = gaudin.GaudinRep(N, points)
    ctx = gaudin.rep_context(rep)
    ref = gaudin.ThetaContext(ratfun_current(rep))
    same_tensor(ctx.current, ref.current)
    for m in range(1, m_max + 1):
        mbar = ctx.theta_mbar(m, shifted)
        same_operator(mbar, ref.theta_mbar(m, shifted))
        assert ctx.theta_generating(m, shifted) == mbar
