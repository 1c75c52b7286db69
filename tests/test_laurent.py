"""Laurent polynomials in (q, u, v) against the Q(q)(u)(v) tower.

The tower is the reference: every ring operation must commute with the
map that sends a Laurent polynomial to the rational function it denotes.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from triggaudin import qside
from triggaudin.laurent import Laurent, LaurentRing
from triggaudin.rationals import QQ, rational
from triggaudin.ratfun import FracField
from triggaudin.rmatrices import Qq

from tower_reference import Qqu, lift, to_tower as to_qqu

QUV = qside.QUV
FUV = FracField("v", Qqu)
TOWER_GENS = (FUV.embed(Qqu.embed(Qq.gen)), FUV.embed(Qqu.gen), FUV.gen)


def to_tower(x):
    """The element of Q(q)(u)(v) that a Laurent polynomial denotes."""
    if x.is_zero():
        return FUV.zero
    return lift(x.terms, (Qq, Qqu, FUV))


exponents = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)
nonzero_coeffs = st.builds(
    rational,
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.integers(min_value=1, max_value=4),
)
laurents = st.builds(
    lambda terms: Laurent(QUV, terms),
    st.dictionaries(exponents, nonzero_coeffs, max_size=4),
)
monomials = st.builds(
    lambda e, c: Laurent(QUV, {e: c}), exponents, nonzero_coeffs
)
small = st.integers(min_value=-3, max_value=3)
qu_laurents = st.builds(
    lambda terms: Laurent(qside.QU, terms),
    st.dictionaries(st.tuples(small, small), nonzero_coeffs, max_size=4),
)


class TestAgainstTower:
    @settings(max_examples=40, deadline=None)
    @given(monomials)
    def test_map_of_monomial(self, m):
        ((exps, c),) = m.terms.items()
        expect = FUV.embed(Qqu.embed(Qq.embed(c)))
        for g, e in zip(TOWER_GENS, exps):
            expect = expect * g ** e
        assert to_tower(m) == expect

    @settings(max_examples=40, deadline=None)
    @given(laurents, laurents)
    # drawn under --hypothesis-seed=5: the tower's sum did not finish
    # while UniPoly.gcd ran the plain remainder sequence
    @example(
        Laurent(
            QUV,
            {
                (-3, -2, -2): rational(-4, 3),
                (2, -2, -3): rational(3, 4),
                (3, -3, -2): rational(-5, 4),
                (0, -2, 0): rational(5, 3),
            },
        ),
        Laurent(
            QUV,
            {
                (-1, 2, 0): rational(-5),
                (-2, -3, -1): rational(-4),
                (2, 1, -1): rational(1),
                (0, -1, -3): rational(-5, 3),
            },
        ),
    )
    def test_add_sub(self, a, b):
        assert to_tower(a + b) == to_tower(a) + to_tower(b)
        assert to_tower(a - b) == to_tower(a) - to_tower(b)

    @settings(max_examples=40, deadline=None)
    @given(laurents, laurents)
    def test_mul(self, a, b):
        assert to_tower(a * b) == to_tower(a) * to_tower(b)

    @settings(max_examples=40, deadline=None)
    @given(laurents)
    def test_neg(self, a):
        assert to_tower(-a) == -to_tower(a)

    @settings(max_examples=40, deadline=None)
    @given(laurents, monomials)
    def test_monomial_division(self, a, m):
        assert to_tower(a / m) == to_tower(a) / to_tower(m)

    @settings(max_examples=40, deadline=None)
    @given(monomials, st.integers(min_value=-4, max_value=4))
    def test_monomial_powers(self, m, k):
        assert to_tower(m ** k) == to_tower(m) ** k

    @settings(max_examples=40, deadline=None)
    @given(laurents, laurents)
    # the tower's difference took seconds until UniPoly.gcd settled
    # monomial operands (here v^3 against the numerator) without division
    @example(
        Laurent(
            QUV,
            {
                (0, -3, -1): rational(-1, 2),
                (2, -1, -1): rational(-3, 2),
                (-1, -2, -2): rational(1),
                (3, -1, -3): rational(3),
            },
        ),
        Laurent(
            QUV,
            {
                (2, -1, -2): rational(2, 3),
                (-3, -1, -2): rational(1, 3),
                (-2, -1, -3): rational(4),
                (-2, -2, -3): rational(-1, 2),
            },
        ),
    )
    def test_zero_test_matches(self, a, b):
        assert ((a - b).is_zero()) == (to_tower(a) - to_tower(b)).is_zero()


class TestScaleVar:
    @settings(max_examples=40, deadline=None)
    @given(qu_laurents, small, nonzero_coeffs)
    def test_against_tower(self, a, e, c):
        # u -> c q^e u in Q[q^+-1, u^+-1] and in Q(q)(u)
        factor = Laurent(qside.QU, {(e, 0): c})
        scalar = Qq.embed(c) * Qq.gen ** e
        assert to_qqu(a.scale_var(factor)) == to_qqu(a).scale_var(scalar)

    def test_factor_must_be_a_monomial_free_of_the_variable(self):
        q, u = qside.QU.gens
        with pytest.raises(ArithmeticError):
            u.scale_var(q + qside.QU.one)
        with pytest.raises(ValueError):
            u.scale_var(q * u)


class TestRing:
    def test_generators_and_constants(self):
        q, u, v = QUV.gens
        assert to_tower(q) == TOWER_GENS[0]
        assert to_tower(u / v) == TOWER_GENS[1] / TOWER_GENS[2]
        assert QUV.from_int(0) == QUV.zero
        assert to_tower(QUV.one / QUV.from_int(6)) == FUV.one / FUV.from_int(6)

    def test_division_by_non_monomial_raises(self):
        q, u, v = QUV.gens
        with pytest.raises(ArithmeticError):
            QUV.one / (q - u)
        with pytest.raises(ArithmeticError):
            (q + QUV.one) ** -1

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QUV.one / QUV.zero

    def test_rings_are_told_apart(self):
        other = LaurentRing(("q", "u"))
        assert other.one != QUV.one
        with pytest.raises(ValueError):
            other.one + QUV.one
        with pytest.raises(TypeError):
            QUV.one + QQ.one

    def test_hash_follows_equality(self):
        q, u, v = QUV.gens
        a = (q + u) * v
        b = v * u + q * v
        assert a == b and hash(a) == hash(b)


class TestFusedElementAgainstTower:
    def test_newton_twisted_entries(self):
        rep = qside.QRep(2, [rational(1), rational(3)])
        q, u, _ = QUV.gens
        fast = qside.bethe(rep, "newton", 2, True, ring=QUV, q=q, u=u)
        ref = qside.bethe(
            rep, "newton", 2, True, ring=FUV, q=TOWER_GENS[0], u=TOWER_GENS[1]
        )
        assert not ref.is_zero()
        assert fast.map_entries(to_tower, ring=FUV) == ref
