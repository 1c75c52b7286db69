"""The q-side product fast paths against slower references.

Three layers: packed Laurent exponents against the tuple-keyed
reference (:mod:`laurent_reference`), with large exponents of both signs
and the guard that keeps packed keys from aliasing; ``Laurent.dot`` and
the one-``dot``-per-entry product of :func:`~triggaudin.kernels.sparse_matmul`
against the pairwise fold; and the kept Newton chain of
:func:`~triggaudin.qside.mcal_collapsed` against ``bethe(rep, "newton", k)``.
The negative controls show that each comparison tells a broken fast
path from a working one.
"""

from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import full_space_q_routes
import laurent_reference as ref
from test_intlaurent import REF_RINGS, RINGS, agrees, canonical
from triggaudin import laurent, qside
from triggaudin.kernels import sparse_matmul
from triggaudin.laurent import Laurent
from triggaudin.qside import QU
from triggaudin.rationals import rational
from triggaudin.rmatrices import permutation, q_permutation
from triggaudin.tensor import AuxTensor

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=1, max_value=6),
)
big = st.integers(min_value=-(2**20), max_value=2**20)
small = st.integers(min_value=-3, max_value=3)


def pair(data, ring, exps=big, max_size=4):
    """A drawn element of ``ring`` and the reference element it denotes."""
    keys = st.tuples(*[exps] * len(ring.names))
    terms = data.draw(st.dictionaries(keys, rationals, max_size=max_size))
    return ring.from_terms(terms), ref.Laurent(REF_RINGS[ring], terms)


def in_tuple_order(x):
    """The packed keys, sorted as ints, unpack to the sorted tuples."""
    return [x.ring.unpack(e) for e in sorted(x.ints)] == sorted(x.terms)


class TestPackedExponents:
    @RINGS
    @SETTINGS
    @given(data=st.data())
    def test_ring_operations_with_large_exponents(self, ring, data):
        (a, ra), (b, rb) = pair(data, ring), pair(data, ring)
        for x, r in ((a, ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb)):
            assert agrees(x, r) and in_tuple_order(x)
        assert (a == b) == (ra == rb)

    @RINGS
    @SETTINGS
    @given(data=st.data(), k=st.integers(min_value=-3, max_value=3))
    def test_units_powers_and_shifts(self, ring, data, k):
        (a, ra) = pair(data, ring)
        e = data.draw(st.tuples(*[big] * len(ring.names)))
        c = data.draw(rationals)
        m, rm = ring.from_terms({e: c}), ref.Laurent(REF_RINGS[ring], {e: c})
        assert agrees(m.inverse(), rm.inverse())
        assert agrees(a / m, ra / rm)
        assert agrees(m ** k, rm ** k)
        # a unit factor at large exponents, a rational one at small ones
        f = data.draw(st.tuples(*[small] * len(ring.names)))[:-1] + (0,)
        one = Fraction(1)
        assert agrees(
            a.scale_var(ring.from_terms({f: one})),
            ra.scale_var(ref.Laurent(REF_RINGS[ring], {f: one})),
        )
        (b, rb) = pair(data, ring, small)
        assert agrees(
            b.scale_var(ring.from_terms({f: c})),
            rb.scale_var(ref.Laurent(REF_RINGS[ring], {f: c})),
        )

    @RINGS
    def test_pack_round_trip_at_the_limit(self, ring):
        top = laurent._HALF - 1
        for e in ((top,) * len(ring.names), (-top,) * len(ring.names)):
            assert ring.unpack(ring.pack(e)) == e
            x = ring.from_terms({e: Fraction(1)})
            assert x.terms == {e: 1} and x.bound == top

    def test_bounds_follow_the_operations(self):
        q, u = QU.gens
        a, b = q ** 5 + u ** -3, u ** 7
        assert (a.bound, b.bound) == (5, 7)
        assert (a * b).bound == 12 and (a + b).bound == 7
        assert (a ** 3).bound == 15 and (-a).bound == 5
        assert Laurent.dot([(a, b), (b, b)]).bound == 14
        # u^2 -> (q^-2 u)^2: the last digit 2 times the factor's bound 2
        assert (u ** 2).scale_var(q ** -2).bound == 2 + 2 * 2


class TestAliasGuard:
    def test_power_stops_before_half_the_stride(self):
        q = QU.gens[0]
        x = q ** 2**30
        assert x.terms == {(2**30, 0): 1}
        with pytest.raises(OverflowError):
            x * x
        y = q ** (2**31 - 1)
        assert y.terms == {(2**31 - 1, 0): 1}
        assert (q ** -(2**31 - 1)).terms == {(1 - 2**31, 0): 1}
        with pytest.raises(OverflowError):
            q ** 2**31
        with pytest.raises(OverflowError):
            QU.gens[0] ** 2**40

    def test_every_entry_point_is_guarded(self):
        q, u = QU.gens
        x = q ** 2**30
        with pytest.raises(OverflowError):
            QU.from_terms({(2**31, 0): Fraction(1)})
        with pytest.raises(OverflowError):
            Laurent.dot([(x, x)])
        with pytest.raises(OverflowError):
            (u ** 2**16).scale_var(q ** 2**15)

    def test_guard_counts_the_bound_not_the_exponents(self):
        # x / x is 1, but its bound still says 2^30
        x = QU.gens[0] ** 2**29
        one = x / x
        assert one == QU.one and one.bound == 2**30
        with pytest.raises(OverflowError):
            one * x * x


def fold(pairs):
    """sum v * w, one product and one sum at a time."""
    return reduce(add, (v * w for v, w in pairs), pairs[0][0].ring.zero)


class TestDot:
    @RINGS
    @SETTINGS
    @given(data=st.data(), n=st.integers(min_value=1, max_value=5))
    def test_dot_equals_the_pairwise_fold(self, ring, data, n):
        # small exponents, so that products collide and sums cancel
        drawn = [(pair(data, ring, small), pair(data, ring, small)) for _ in range(n)]
        pairs = [(v, w) for (v, _), (w, _) in drawn]
        got = Laurent.dot(pairs)
        assert got == fold(pairs) and canonical(got)
        # ``*`` is itself a one-pair dot, so the reference ring checks both
        want = reduce(add, (rv * rw for (_, rv), (_, rw) in drawn))
        assert agrees(got, want)

    @RINGS
    def test_mixed_denominators_zero_factors_and_cancellation(self, ring):
        x = ring.gens[0]
        third, half = ring.one / ring.from_int(3), ring.one / ring.from_int(2)
        cases = [
            [(x * third, half), (x, ring.from_int(5) / ring.from_int(6))],
            [(ring.zero, x), (x * half, ring.zero), (ring.zero, ring.zero)],
            [(x * third, half), (-x, half * third)],
            [(x + third, x - third), (-x, x), (third, third)],
        ]
        for pairs in cases:
            got = Laurent.dot(pairs)
            assert got == fold(pairs) and canonical(got)
        assert Laurent.dot(cases[1]) == Laurent.dot(cases[2]) == ring.zero
        assert Laurent.dot(cases[0]) == x
        assert Laurent.dot(cases[0]).den == 1

    def test_dot_refuses_a_foreign_ring(self):
        with pytest.raises(ValueError):
            Laurent.dot([(QU.gens[0], qside.QUV.gens[0])])

    def test_matmul_takes_one_dot_per_entry(self, monkeypatch):
        rep = qside.QRep(2, [rational(1, 2), rational(3)])
        L = qside.qrep_current(rep).entries
        pairwise = {}
        for (r, c), v in L.items():
            for (r2, c2), w in L.items():
                if c == r2:
                    pairwise[(r, c2)] = pairwise.get((r, c2), QU.zero) + v * w
        calls = []
        original = Laurent.dot

        def counting(pairs):
            calls.append(len(pairs))
            return original(pairs)

        monkeypatch.setattr(Laurent, "dot", staticmethod(counting))
        got = sparse_matmul(L, L)
        assert got == {k: v for k, v in pairwise.items() if v}
        assert len(calls) == len(pairwise) and max(calls) > 1

    def test_unreduced_dot_is_unequal(self, monkeypatch):
        # negative control: a dot that skips the content reduction
        q = QU.gens[0]
        half, two = QU.one / QU.from_int(2), QU.from_int(2)
        pairs = [(half, two * q), (half, two)]
        reduced = Laurent.dot(pairs)
        monkeypatch.setattr(laurent, "_new", Laurent)
        skipped = Laurent.dot(pairs)
        assert skipped.terms == reduced.terms  # the same polynomial ...
        assert skipped != reduced  # ... not in canonical form
        assert reduced == q + QU.one


# (N, points): two sites at two point sets, and three sites
CHAIN_CASES = [
    (2, ("1", "3")),
    (3, ("1", "3")),
    (2, ("1/2", "-3")),
    (3, ("1/2", "-3")),
    (2, ("1", "3", "-2")),
]


def rep_of(N, points):
    return qside.QRep(N, [Fraction(p) for p in points])


def reference(rep, k, with_D, **ring):
    return full_space_q_routes.bethe(rep, "newton", k, with_D, **ring)


class TestNewtonChain:
    @pytest.mark.parametrize("with_D", [False, True])
    @pytest.mark.parametrize("N, points", CHAIN_CASES)
    def test_terms_equal_bethe(self, N, points, with_D):
        # against the full space; the reference takes 33 s at N = 3, k = 5
        rep = rep_of(N, points)
        kept = qside.NewtonChain(rep, with_D)
        k_max = 4 if (N, len(points)) == (2, 2) else 3
        for k in range(1, k_max + 1):
            assert kept.term(k) == reference(rep, k, with_D)

    @pytest.mark.parametrize("with_D", [False, True])
    def test_terms_over_quv_equal_the_reference(self, with_D):
        # the ring and argument of the fused commutator checks
        rep = rep_of(2, ("1", "3"))
        v = qside.QUV.gens[2]
        kept = qside.NewtonChain(rep, with_D, qside.QUV, u=v)
        for k in range(1, 4):
            assert kept.term(k) == reference(rep, k, with_D, ring=qside.QUV, u=v)

    def test_order_below_one_is_refused(self):
        kept = qside.NewtonChain(rep_of(2, ("1", "3")), False)
        kept.term(2)
        for k in (0, -1):
            with pytest.raises(ValueError):
                kept.term(k)

    def test_kept_chain_is_shared_per_site_set_and_twist(self):
        rep = rep_of(2, ("1", "3"))
        q, u = QU.gens
        kept = qside.newton_chain(rep.N, rep.points, False, QU, q, u)
        same = qside.newton_chain(2, rep_of(2, ("1", "3")).points, False, QU, q, u)
        assert same is kept
        qv, _, v = qside.QUV.gens
        others = [
            qside.newton_chain(2, rep.points, True, QU, q, u),
            qside.newton_chain(2, rep_of(2, ("1", "4")).points, False, QU, q, u),
            qside.newton_chain(3, rep.points, False, QU, q, u),
            qside.newton_chain(2, rep.points, False, qside.QUV, qv, v),
        ]
        assert all(o is not kept for o in others)
        for other in others[:2]:
            assert other.term(2) != kept.term(2)

    def test_collapse_reads_the_kept_terms(self):
        # one key per element: bethe and mcal_collapsed resolve q and u
        # to the same chain, whose terms they share
        rep = rep_of(2, ("1/2", "-3"))
        kept = qside.newton_chain(rep.N, rep.points, True, QU, *QU.gens)
        qside.mcal_collapsed(rep, 3, True)
        assert len(kept.terms) >= 3
        before = list(kept.terms)
        qside.mcal_collapsed(rep, 2, True)
        assert all(a is b for a, b in zip(kept.terms, before))
        for k in (1, 2, 3):
            assert qside.bethe(rep, "newton", k, True) is before[k - 1]

    @pytest.mark.parametrize("with_D", [False, True])
    def test_one_auxiliary_leg_at_most(self, with_D, monkeypatch):
        # structural guard: with P^q traced as a weighted flip, no step
        # embeds a tensor into more than (one aux leg, sites)
        dims = []
        embed = AuxTensor.embed

        def recording_embed(self, target, assignment):
            dims.append(target.dim)
            return embed(self, target, assignment)

        monkeypatch.setattr(AuxTensor, "embed", recording_embed)
        qside._qrep_current.cache_clear()
        rep = rep_of(3, ("1/2", "-3"))
        kept = qside.NewtonChain(rep, with_D)
        for k in range(1, 5):
            kept.term(k)
        assert dims and max(dims) == 3 ** (1 + rep.l)

    @pytest.mark.parametrize("with_D", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_terms_form_k_minus_1_products(self, k, with_D, monkeypatch):
        # structural guard: term k is summed as V_k L_k is formed, and
        # V_k L_k is formed whole only for the next term
        products, traced = [], []
        mul, product_trace = AuxTensor.__mul__, AuxTensor.product_trace

        def counting_mul(self, other):
            products.append(other)
            return mul(self, other)

        def counting_trace(self, other, names):
            traced.append(other)
            return product_trace(self, other, names)

        monkeypatch.setattr(AuxTensor, "__mul__", counting_mul)
        monkeypatch.setattr(AuxTensor, "product_trace", counting_trace)
        kept = qside.NewtonChain(rep_of(2, ("1", "3")), with_D)
        kept.term(k)
        # the currents are the right factors of the summed products; a
        # twisted current's own product L D is not one of them
        whole = [o for o in products if any(o is L for L in traced)]
        assert len(traced) == k and len(whole) == k - 1


class TestNewtonChainNegativeControl:
    """Each broken chain agrees with the reference at k = 1 and differs
    from it at k = 2."""

    rep = rep_of(2, ("1", "3"))

    def test_plain_permutation_fails(self):
        kept = qside.NewtonChain(self.rep, False)
        kept.pq = permutation(2, QU)
        assert kept.term(2) != reference(self.rep, 2, False)

    def test_transposed_q_weights_fail(self):
        # P^q with q -> q^-1 carries the transposed weights
        for with_D in (False, True):
            kept = qside.NewtonChain(self.rep, with_D)
            kept.pq = q_permutation(2, QU, QU.gens[0] ** -1)
            assert kept.term(1) == reference(self.rep, 1, with_D)
            assert kept.term(2) != reference(self.rep, 2, with_D)

    def test_leg_traced_before_the_q_permutation_fails(self, monkeypatch):
        # tr_k(V_k L_k) times the identity on z0 in place of the flip:
        # leg k summed before P^q_(k,k+1) couples it to leg k + 1
        def early(self, flip):
            legs = self.space.leg_names()
            return self.partial_trace(legs[:1]).place(self.space, *legs[1:])

        monkeypatch.setattr(AuxTensor, "flip_trace", early)
        for with_D in (False, True):
            kept = qside.NewtonChain(self.rep, with_D)
            assert kept.term(1) == reference(self.rep, 1, with_D)
            assert kept.term(2) != reference(self.rep, 2, with_D)
