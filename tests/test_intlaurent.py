"""The integer-numerator Laurent ring against its rational-coefficient
reference (:mod:`laurent_reference`), over Q[q^+-1, u^+-1] and
Q[q^+-1, u^+-1, v^+-1].

Every result must render the same, have the same rational coefficients
and be in canonical form: positive denominator, no zero numerator, and
numerators whose content is coprime to the denominator.  The negative
controls show that structural equality sees an unreduced form, and that
a ring with a skipped or wrong content reduction fails these checks, so
a structural zero test cannot pass vacuously.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import laurent_reference as ref
from triggaudin import laurent, qside
from triggaudin.laurent import Laurent

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

RINGS = pytest.mark.parametrize("ring", [qside.QU, qside.QUV], ids=repr)
REF_RINGS = {ring: ref.LaurentRing(ring.names) for ring in (qside.QU, qside.QUV)}

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=4),
)
small = st.integers(min_value=-3, max_value=3)


def exponents(ring):
    return st.tuples(*[small] * len(ring.names))


def pair(data, ring, max_size=5):
    """A drawn element of ``ring`` and the reference element it denotes."""
    terms = data.draw(st.dictionaries(exponents(ring), rationals, max_size=max_size))
    return ring.from_terms(terms), ref.Laurent(REF_RINGS[ring], terms)


def _monomial(data, ring):
    e, c = data.draw(exponents(ring)), data.draw(rationals)
    return ring.from_terms({e: c}), ref.Laurent(REF_RINGS[ring], {e: c})


def canonical(x):
    return (
        x.den > 0
        and all(x.ints.values())
        and gcd(x.den, *x.ints.values()) == 1
    )


def agrees(x, r):
    """x renders like r, has r's coefficients and is in canonical form."""
    return (
        repr(x) == repr(r)
        and x.terms == r.terms
        and bool(x) == bool(r)
        and canonical(x)
        and x == x.ring.from_terms(r.terms)
    )


class TestAgainstReference:
    @RINGS
    @SETTINGS
    @given(data=st.data())
    def test_ring_operations(self, ring, data):
        (a, ra), (b, rb) = pair(data, ring), pair(data, ring)
        assert agrees(a, ra)
        assert agrees(a + b, ra + rb)
        assert agrees(a - b, ra - rb)
        assert agrees(a * b, ra * rb)
        assert agrees(-a, -ra)
        assert agrees(a - a, ra - ra)

    @RINGS
    @SETTINGS
    @given(data=st.data(), k=st.integers(min_value=-4, max_value=4))
    def test_units_division_and_powers(self, ring, data, k):
        (a, ra), (m, rm) = pair(data, ring), _monomial(data, ring)
        assert agrees(m.inverse(), rm.inverse())
        assert agrees(a / m, ra / rm)
        assert agrees(m ** k, rm ** k)
        assert agrees(a ** (k % 3), ra ** (k % 3))

    @RINGS
    @SETTINGS
    @given(data=st.data(), unit=st.booleans())
    def test_scale_var(self, ring, data, unit):
        a, ra = pair(data, ring)
        # a monomial free of the last variable; unit factors such as the
        # delta-shift q^-2 only move exponents
        e = data.draw(exponents(ring))[:-1] + (0,)
        c = Fraction(1) if unit else data.draw(rationals)
        f, rf = ring.from_terms({e: c}), ref.Laurent(REF_RINGS[ring], {e: c})
        assert agrees(a.scale_var(f), ra.scale_var(rf))

    @RINGS
    @SETTINGS
    @given(data=st.data())
    def test_equality_and_hash(self, ring, data):
        (a, ra), (b, rb), (m, _) = (
            pair(data, ring),
            pair(data, ring),
            _monomial(data, ring),
        )
        assert (a == b) == (ra == rb)
        # the same element reached along other routes
        for c in ((a + b) - b, a * m / m, -(-a)):
            assert c == a and hash(c) == hash(a)


def test_delta_shift_only_moves_exponents():
    q, u = qside.QU.gens
    f = (q + qside.QU.one / qside.QU.from_int(3)) * u ** -2 - u
    g = f.scale_var(q ** -2)
    assert g.den == f.den
    assert sorted(g.ints.values()) == sorted(f.ints.values())
    third = qside.QU.one / qside.QU.from_int(3)
    assert g == (q ** 5 + q ** 4 * third) * u ** -2 - q ** -2 * u


def test_ring_operations_build_no_fraction(monkeypatch):
    q, u = qside.QU.gens
    third = qside.QU.from_terms({(0, 0): Fraction(1, 3)})
    a = (q + third) * u ** -2 - u
    b = q * third - u * third
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [a + b, a - b, -a, a * b, a / (q * third), (q * third) ** -3, a ** 2]
    results += [a.scale_var(q ** -2), a.scale_var(q * third), hash(a), a == b]
    assert not made
    a.terms  # a read-out does build them, so the count is not vacuous
    assert len(made) == 3


class TestNegativeControl:
    """The content reduction is what makes structural equality sound."""

    def test_unreduced_twin_is_unequal(self):
        q = qside.QU.gens[0]
        half = qside.QU.from_terms({(0, 0): Fraction(1, 2)})
        assert (qside.QU.from_int(2) * q) * half == q
        twin = Laurent(qside.QU, {next(iter(q.ints)): 2}, 2)  # 2q / 2, not reduced
        assert twin.terms == q.terms  # the same polynomial over Q ...
        assert twin != q  # ... but not in canonical form
        assert laurent._new(qside.QU, twin.ints, twin.den) == q

    @staticmethod
    def _skip_reduction(ring, ints, den):
        return Laurent(ring, ints, den)

    @staticmethod
    def _first_term_gcd(ring, ints, den):
        g = gcd(den, next(iter(ints.values()), 0))
        return Laurent(ring, {e: c // g for e, c in ints.items()}, den // g)

    @pytest.mark.parametrize("broken", ["_skip_reduction", "_first_term_gcd"])
    def test_broken_reduction_is_caught(self, monkeypatch, broken):
        QU, rQU = qside.QU, REF_RINGS[qside.QU]
        q, one, rq, rone = QU.gens[0], QU.one, rQU.gens[0], rQU.one
        two, half = QU.from_int(2), QU.from_terms({(0, 0): Fraction(1, 2)})
        rtwo, rhalf = rQU.from_int(2), rQU.one / rQU.from_int(2)
        monkeypatch.setattr(laurent, "_new", getattr(self, broken))
        # (2q) (1/2) = q, and (2q + 3) (1/2) = q + 3/2
        cases = [
            ((two * q) * half, (rtwo * rq) * rhalf),
            ((two * q + QU.from_int(3)) * half, (rtwo * rq + rQU.from_int(3)) * rhalf),
            (half + half, rhalf + rhalf),
            (one / two - half, rone / rtwo - rhalf),
        ]
        assert not all(agrees(x, r) for x, r in cases)
