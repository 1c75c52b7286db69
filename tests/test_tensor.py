"""Sparse tensor operators: embedding, products, traces, kernels."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from triggaudin import gaudin, qside
from triggaudin import tensor as tensor_module
from triggaudin.kernels import sparse_add, sparse_matmul_trace
from triggaudin.rationals import QQ, rational
from triggaudin.rmatrices import (
    permutation,
    q_permutation,
    r_classical,
    r_quantum_scaled,
    tc,
    tc_bar,
)
from triggaudin.tensor import (
    AuxTensor,
    Space,
    aux_leg,
    aux_space,
    chain,
    quantum_leg,
    single_leg_matrix,
    two_leg_tensor,
)
from triggaudin.weyl import DiffOp, QDiffOp

import tensor_reference


def e_matrix(N, i, j):
    """Elementary matrix e_ij on leg a1, 1-based."""
    return single_leg_matrix(N, QQ, lambda a, b: QQ.one if (a, b) == (i, j) else None)


class TestSpace:
    def test_encode_decode_roundtrip(self):
        sp = Space(3, [aux_leg("a"), quantum_leg("s"), aux_leg("b")])
        for flat in range(sp.dim):
            assert sp.encode(tensor_reference.decode(sp, flat)) == flat

    def test_row_major_order(self):
        sp = Space(2, [aux_leg("a"), aux_leg("b")])
        assert sp.encode((1, 0)) == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Space(2, [aux_leg("a"), aux_leg("a")])


class TestAlgebra:
    def test_elementary_products(self):
        # e_12 e_21 = e_11, e_12 e_12 = 0
        a = e_matrix(2, 1, 2)
        b = e_matrix(2, 2, 1)
        assert a * b == e_matrix(2, 1, 1)
        assert (a * a).is_zero()

    def test_embed_acts_as_identity_elsewhere(self):
        sp = Space(2, [aux_leg("a"), aux_leg("b")])
        x = e_matrix(2, 1, 2).embed(sp, {"a1": "a"})
        ident = AuxTensor.identity(Space(2, [aux_leg("b")]), QQ).embed(sp, {"b": "b"})
        assert x * ident == x

    def test_embed_order_irrelevant_for_disjoint_legs(self):
        sp = Space(2, [aux_leg("a"), aux_leg("b")])
        x = e_matrix(2, 1, 2).embed(sp, {"a1": "a"})
        y = e_matrix(2, 2, 1).embed(sp, {"a1": "b"})
        assert x * y == y * x

    def test_commutator(self):
        sp = Space(2, [aux_leg("a")])
        x = e_matrix(2, 1, 2).embed(sp, {"a1": "a"})
        y = e_matrix(2, 2, 1).embed(sp, {"a1": "a"})
        h = e_matrix(2, 1, 1).embed(sp, {"a1": "a"}) - e_matrix(2, 2, 2).embed(
            sp, {"a1": "a"}
        )
        assert x.commutator(y) == h


class TestTraces:
    def test_full_trace_of_identity(self):
        sp = Space(3, [aux_leg("a"), aux_leg("b")])
        assert AuxTensor.identity(sp, QQ).trace() == rational(9)

    def test_partial_trace_of_flip(self):
        # tr_2 P = identity on leg 1
        N = 3
        P = two_leg_tensor(
            N, QQ, lambda i, j, k, l: QQ.one if (k == j and l == i) else None
        )
        traced = P.partial_trace(["a2"])
        assert traced == AuxTensor.identity(traced.space, QQ)

    def test_quantum_leg_refused(self):
        sp = Space(2, [quantum_leg("s")])
        with pytest.raises(ValueError):
            AuxTensor.identity(sp, QQ).partial_trace(["s"])

    def test_trace_factorizes(self):
        sp = Space(2, [aux_leg("a"), aux_leg("b")])
        x = e_matrix(2, 1, 1).place(sp, "a")
        y = e_matrix(2, 2, 2).place(sp, "b")
        prod = x * y
        assert prod.partial_trace(["a"]).trace() == prod.trace()
        assert prod.trace() == rational(1)


class TestKernels:
    def test_cancellation_drops_entries(self):
        a = {(0, 0): rational(1)}
        b = {(0, 0): rational(-1)}
        assert sparse_add(a, b) == {}


class TestEquality:
    def test_ring_is_compared(self):
        from triggaudin.ratfun import FracField

        Fu = FracField("u", QQ)
        sp = Space(2, [aux_leg("a")])
        assert AuxTensor.zero(sp, QQ) == AuxTensor.zero(sp, QQ)
        assert AuxTensor.zero(sp, QQ) != AuxTensor.zero(sp, Fu)
        assert len({AuxTensor.zero(sp, QQ), AuxTensor.zero(sp, Fu)}) == 2


# -- offset indexing and traced chains against the references ----------

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

values = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.integers(min_value=1, max_value=3),
)


def tensors(N, k):
    """Sparse tensors over QQ on the legs a1..ak."""
    dim = N**k
    index = st.integers(min_value=0, max_value=dim - 1)
    entries = st.dictionaries(st.tuples(index, index), values, max_size=8)
    return entries.map(lambda e: AuxTensor(aux_space(N, k), QQ, e))


@st.composite
def spaces(draw, min_legs=1):
    """Spaces of 1-4 legs (N = 2) or 1-3 legs (N = 3), some of them quantum."""
    N = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=min_legs, max_value=4 if N == 2 else 3))
    quantum = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Space(N, [quantum_leg("q%d" % i) if qu else aux_leg("x%d" % i)
                     for i, qu in enumerate(quantum)])


@st.composite
def chain_cases(draw):
    """(space, factors, traced): 0-4 factors of 1-3 legs each, and any
    set of auxiliary legs to trace, touched by a factor or not."""
    space = draw(spaces(min_legs=2))
    names = space.leg_names()
    factors = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        legs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        factors.append((draw(tensors(space.N, len(legs))), *legs))
    aux = [leg.name for leg in space.legs if not leg.quantum]
    traced = draw(st.sets(st.sampled_from(aux))) if aux else set()
    return space, factors, traced


def agrees(chain_fn, space, factors, traced):
    """``chain_fn`` with ``traced`` equals the full product, then traced."""
    return chain_fn(space, QQ, factors, traced) == chain(space, QQ, factors).partial_trace(
        traced
    )


def early_chain(space, ring, factors, traced):
    """A deliberately wrong chain: each traced leg is summed after its
    second-to-last factor and comes back as the identity, so a later
    factor on it multiplies the summed product."""
    uses = {}
    for i, (_, *legs) in enumerate(factors):
        for nm in legs:
            uses.setdefault(nm, []).append(i)
    early = {nm: uses[nm][-2] for nm in traced if len(uses.get(nm, ())) > 1}
    out = AuxTensor.identity(space, ring)
    for i, (t, *legs) in enumerate(factors):
        out = out * t.place(space, *legs)
        for nm in sorted(nm for nm, j in early.items() if j == i):
            summed = out.partial_trace([nm])
            out = summed.place(space, *summed.space.leg_names())
    return out.partial_trace(traced)


class TestOffsetIndexing:
    @SETTINGS
    @given(st.data())
    def test_embed_matches_decode_reference(self, data):
        target = data.draw(spaces())
        k = data.draw(st.integers(min_value=1, max_value=target.nlegs))
        t = data.draw(tensors(target.N, k))
        images = data.draw(st.permutations(target.leg_names()))[:k]
        assignment = dict(zip(t.space.leg_names(), images))
        got = t.embed(target, assignment)
        want = tensor_reference.embed(t, target, assignment)
        assert got.space == want.space
        assert list(got.entries.items()) == list(want.entries.items())

    @SETTINGS
    @given(st.data())
    def test_partial_trace_matches_decode_reference(self, data):
        space = data.draw(spaces())
        t = data.draw(tensors(space.N, space.nlegs)).place(space, *space.leg_names())
        aux = [leg.name for leg in space.legs if not leg.quantum]
        names = data.draw(st.sets(st.sampled_from(aux))) if aux else set()
        got = t.partial_trace(names)
        want = tensor_reference.partial_trace(t, names)
        assert got.space == want.space
        assert list(got.entries.items()) == list(want.entries.items())


class TestTracedChain:
    @SETTINGS
    @given(chain_cases())
    def test_traced_chain_equals_chain_then_trace(self, case):
        space, factors, traced = case
        assert chain(space, QQ, factors, traced).space == space.drop(traced)
        assert agrees(chain, space, factors, traced)

    def test_untouched_traced_legs_give_n(self):
        space = aux_space(3, 3)
        got = chain(space, QQ, [(e_matrix(3, 1, 1), "a2")], ["a1", "a2", "a3"])
        assert got.entries == {(0, 0): rational(9)}
        assert chain(space, QQ, [], ["a2"]) == AuxTensor.scalar(
            space.drop(["a2"]), QQ, rational(3)
        )

    def test_quantum_and_unknown_legs_refused(self):
        space = Space(2, [aux_leg("a"), quantum_leg("s")])
        with pytest.raises(ValueError):
            chain(space, QQ, [], ["s"])
        with pytest.raises(ValueError):
            chain(space, QQ, [], ["b"])

    def test_summing_one_factor_early_fails(self):
        # negative control: tr(e12 e21) = 1 but tr(e12) tr-after-e21 = 0
        space = aux_space(2, 2)
        factors = [(e_matrix(2, 1, 2), "a1"), (e_matrix(2, 2, 1), "a1")]
        assert agrees(chain, space, factors, {"a1"})
        assert not agrees(early_chain, space, factors, {"a1"})

    def test_drawn_cases_catch_the_early_sum(self):
        # the drawn cases include one where a later factor acts on a
        # summed leg, so the differential test above cannot pass vacuously
        space, factors, traced = find(
            chain_cases(),
            lambda case: not agrees(early_chain, *case),
            settings=settings(SETTINGS, phases=[Phase.generate]),
        )
        assert factors and traced


# -- weighted flips against place, premul and partial_trace --------------

FLIP_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

small_ints = st.integers(min_value=-4, max_value=4)
nonzero_ints = small_ints.filter(bool)


def _flip_rings():
    """(ring, q, entry strategy) for QQ, the pole ring Q(u) of the
    classical side and the Laurent ring Q[q^+-1, u^+-1] of the q-side."""
    Qu, QU = gaudin.Qu, qside.QU
    u = Qu.gen
    q, v = QU.gens
    pole = st.builds(
        lambda a, b, c: (Qu.from_int(a) * u + Qu.from_int(b)) / (u - Qu.from_int(c)),
        small_ints, nonzero_ints, nonzero_ints,
    )
    laurent = st.builds(
        lambda a, i, j: QU.from_int(a) * q**i * v**j,
        nonzero_ints, st.integers(-2, 2), st.integers(-2, 2),
    )
    return [
        pytest.param(QQ, Fraction(3, 2), values, id="QQ"),
        pytest.param(Qu, Qu.from_int(3), pole, id="Qu"),
        pytest.param(QU, q, laurent, id="QU"),
    ]


FLIP_RINGS = _flip_rings()


def _flips(N, ring, q):
    """P, Tc, TcBar and P^q, the couplings of the theta routes and of
    the q-side products."""
    return {
        "P": permutation(N, ring),
        "Tc": tc(N, ring),
        "TcBar": tc_bar(N, ring),
        "Pq": q_permutation(N, ring, q),
    }


def _flip_space(N, l):
    return Space(N, [aux_leg("t")] + [quantum_leg("s%d" % i) for i in range(1, l + 1)])


def flip_reference(flip, Y):
    """tr_a(T_ab Y_a) by place, premul and partial_trace in (ta, tb, sites)."""
    sites = Y.space.leg_names()[1:]
    work = Space(Y.space.N, [aux_leg("ta"), aux_leg("tb")] + list(Y.space.legs[1:]))
    placed = Y.place(work, "ta", *sites)
    return (flip.place(work, "ta", "tb") * placed).partial_trace(["ta"])


@st.composite
def flip_cases(draw, ring, entries):
    """A tensor Y over ``ring`` on (t, 1 or 2 sites) at N = 2 or 3."""
    N = draw(st.sampled_from([2, 3]))
    space = _flip_space(N, draw(st.integers(min_value=1, max_value=2)))
    index = st.integers(min_value=0, max_value=space.dim - 1)
    Y = draw(st.dictionaries(st.tuples(index, index), entries, max_size=12))
    return AuxTensor(space, ring, Y)


def _full_tensor(N, ring, value):
    """A tensor on (t, one site) with the entries ``value(r, c)``, zeros
    dropped: every block of t is touched, so a weight read from the
    wrong block shows."""
    space = _flip_space(N, 1)
    return AuxTensor(
        space, ring,
        {(r, c): value(r, c) for r in range(space.dim) for c in range(space.dim)},
        clean=True,
    )


class TestFlipTrace:
    @FLIP_SETTINGS
    @pytest.mark.parametrize("name", ["P", "Tc", "TcBar", "Pq"])
    @pytest.mark.parametrize("ring, q, entries", FLIP_RINGS)
    @given(data=st.data())
    def test_matches_place_premul_trace(self, name, ring, q, entries, data):
        Y = data.draw(flip_cases(ring, entries))
        flip = _flips(Y.space.N, ring, q)[name]
        got = Y.flip_trace(flip)
        assert got.space == Y.space
        assert got.entries == flip_reference(flip, Y).entries

    def test_operator_polynomial_coefficientwise(self):
        Qu = gaudin.Qu
        u = Qu.gen
        Y = _full_tensor(
            2, Qu, lambda r, c: Qu.from_int(r - 2 * c + 1) / (u - Qu.from_int(r + 1))
        )
        op = DiffOp(Y.space, Qu, {0: Y, 2: Y.scale(u)})
        work = Space(2, [aux_leg("ta"), aux_leg("tb"), quantum_leg("s1")])
        for flip in _flips(2, Qu, Qu.from_int(3)).values():
            want = op.place(work, "ta", "s1").premul(flip.place(work, "ta", "tb"))
            want = want.partial_trace(["ta"])
            got = op.flip_trace(flip)
            assert sorted(got.coeffs) == sorted(want.coeffs)
            for k, t in want.coeffs.items():
                assert got.coeffs[k].entries == t.entries

    @pytest.mark.parametrize("name", ["Tc", "Pq"])
    @pytest.mark.parametrize("ring, q, entries", FLIP_RINGS)
    def test_transposed_weights_fail(self, name, ring, q, entries, monkeypatch):
        # negative control: block (j, i) scaled by c_ji instead of c_ij;
        # Tc and P^q have c_ji != c_ij, so the differential test sees it
        real = tensor_module._flip_weights

        def transposed(flip):
            w, N = real(flip), flip.space.N
            return [w[(b % N) * N + b // N] for b in range(N * N)]

        Y = _full_tensor(3, ring, lambda r, c: ring.from_int(r + 3 * c + 1))
        flip = _flips(3, ring, q)[name]
        want = flip_reference(flip, Y).entries
        assert Y.flip_trace(flip).entries == want
        monkeypatch.setattr(tensor_module, "_flip_weights", transposed)
        assert Y.flip_trace(flip).entries != want

    def test_r_classical_is_a_weighted_flip(self):
        # r(x) carries (1+x)/(1-x) + sign(j-i) on e_ij (x) e_ji only
        Qu = gaudin.Qu
        Y = _full_tensor(3, Qu, lambda r, c: Qu.from_int(r - c))
        r = r_classical(3, Qu, Qu.gen)
        assert Y.flip_trace(r).entries == flip_reference(r, Y).entries

    def test_non_flips_are_refused(self):
        q, v = qside.QU.gens
        Y = _full_tensor(2, QQ, lambda r, c: Fraction(r + c + 1))
        # e_11 (x) e_22, and the R-matrix with its e_ii (x) e_jj terms
        mixed = two_leg_tensor(
            2, QQ, lambda i, j, k, l: QQ.one if (i, j, k, l) == (1, 1, 2, 2) else None
        )
        with pytest.raises(ValueError, match="not a weighted flip"):
            Y.flip_trace(mixed)
        with pytest.raises(ValueError, match="not a weighted flip"):
            _full_tensor(2, qside.QU, lambda r, c: qside.QU.one).flip_trace(
                r_quantum_scaled(2, qside.QU, q, v)
            )
        with pytest.raises(ValueError, match="two legs"):
            Y.flip_trace(e_matrix(2, 1, 2))
        with pytest.raises(ValueError):
            Y.flip_trace(_flips(3, QQ, Fraction(2))["P"])


# -- traced products against the product, then partial_trace -----------

PRODUCT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
OPERATOR_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)

# ints need no ring descriptor: neither side of the comparison reads it
PRODUCT_RINGS = [
    pytest.param(None, small_ints.filter(bool), id="int"),
    *[pytest.param(p.values[0], p.values[2], id=p.id) for p in FLIP_RINGS],
]


@st.composite
def product_cases(draw, ring, entries):
    """(x, y, traced): two tensors over ``ring`` on one space of 1-4 legs
    (N = 2) or 1-3 legs (N = 3), either of them possibly empty, and one
    or two auxiliary legs to trace, at any positions."""
    N = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=1, max_value=4 if N == 2 else 3))
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    traced = set(draw(st.permutations(range(n)))[:k])
    quantum = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    space = Space(N, [
        aux_leg("x%d" % i) if i in traced or not quantum[i] else quantum_leg("q%d" % i)
        for i in range(n)
    ])
    index = st.integers(min_value=0, max_value=space.dim - 1)
    tensors = st.dictionaries(st.tuples(index, index), entries, max_size=10)
    x, y = (AuxTensor(space, ring, draw(tensors)) for _ in range(2))
    return x, y, ["x%d" % i for i in sorted(traced)]


def product_then_trace(x, y, names):
    return (x * y).partial_trace(names)


def unfused_chain(space, ring, factors, traced):
    """:func:`chain` with each traced leg summed after the product with its
    last factor is formed whole."""
    with mock.patch.object(AuxTensor, "product_trace", product_then_trace):
        return chain(space, ring, factors, traced)


def _operator_rings():
    """(operator type, ring, extra parameters, entries): DiffOp over the pole
    ring Q(u), QDiffOp over the Laurent ring Q[q^+-1, u^+-1]."""
    Qu, QU = gaudin.Qu, qside.QU
    (_, _, pole), (_, _, laurent) = (p.values for p in FLIP_RINGS[1:])
    return [
        pytest.param(DiffOp, Qu, (), pole, id="DiffOp"),
        pytest.param(QDiffOp, QU, (QU.gens[0] ** -2,), laurent, id="QDiffOp"),
    ]


@st.composite
def operator_cases(draw, kind, ring, params, entries):
    """Two operators of degree 2 or 3 on (t, one site), N = 2."""
    space = _flip_space(2, 1)
    index = st.integers(min_value=0, max_value=space.dim - 1)
    tensors = st.dictionaries(st.tuples(index, index), entries, min_size=1, max_size=5)

    def op():
        degrees = range(draw(st.integers(min_value=3, max_value=4)))
        coeffs = {d: AuxTensor(space, ring, draw(tensors)) for d in degrees}
        return kind(space, ring, coeffs, *params)

    return op(), op()


class TestProductTrace:
    @PRODUCT_SETTINGS
    @pytest.mark.parametrize("ring, entries", PRODUCT_RINGS)
    @given(data=st.data())
    def test_matches_product_then_trace(self, ring, entries, data):
        x, y, names = data.draw(product_cases(ring, entries))
        got = x.product_trace(y, names)
        want = product_then_trace(x, y, names)
        assert got.space == want.space
        assert got.entries == want.entries

    def test_laurent_entries_go_through_dot(self):
        # the q-side ring is the one that takes the kernel's dot hook
        assert callable(getattr(type(qside.QU.one), "dot", None))

    @pytest.mark.parametrize("ring, entries", PRODUCT_RINGS)
    def test_sums_that_cancel_are_dropped(self, ring, entries):
        # diag(v, -v) on the traced leg: the product has two entries, the
        # trace none; on the kept leg, two pairs of one entry cancel
        one = 1 if ring is None else ring.one
        space = Space(2, [aux_leg("a"), quantum_leg("s")])
        ident = AuxTensor(space, ring, {(i, i): one for i in range(4)})
        y = AuxTensor(space, ring, {(0, 0): one, (2, 2): -one})
        assert (ident * y).entries
        assert ident.product_trace(y, ["a"]).entries == {}
        x = AuxTensor(space, ring, {(0, 0): one, (0, 1): one})
        y = AuxTensor(space, ring, {(0, 0): one, (1, 0): -one})
        assert x.product_trace(y, ["a"]).entries == {}

    def test_empty_operands(self):
        space = aux_space(2, 2)
        x = AuxTensor.identity(space, QQ)
        zero = AuxTensor.zero(space, QQ)
        for a, b in ((x, zero), (zero, x), (zero, zero)):
            got = a.product_trace(b, ["a2"])
            assert got.space == space.drop(["a2"]) and got.is_zero()

    def test_quantum_and_unknown_legs_refused(self):
        space = Space(2, [aux_leg("a"), quantum_leg("s")])
        x = AuxTensor.identity(space, QQ)
        with pytest.raises(ValueError):
            x.product_trace(x, ["s"])
        with pytest.raises(ValueError):
            x.product_trace(x, ["b"])

    @OPERATOR_SETTINGS
    @pytest.mark.parametrize("kind, ring, params, entries", _operator_rings())
    @given(data=st.data())
    def test_operators_match_product_then_trace(self, kind, ring, params, entries, data):
        x, y = data.draw(operator_cases(kind, ring, params, entries))
        got = x.product_trace(y, ["t"])
        assert got == (x * y).partial_trace(["t"])
        assert got.space == x.space.drop(["t"])

    def test_diffop_derives_once_per_product(self, monkeypatch):
        # both products derive each entry of each coefficient of the
        # right factor once per derivative order up to the left degree;
        # no derivative of these entries vanishes
        Qu = gaudin.Qu
        u = Qu.gen
        Y = _full_tensor(
            2, Qu, lambda r, c: Qu.from_int(r + c + 1) / (u - Qu.from_int(r + 2))
        )
        x = DiffOp(Y.space, Qu, {0: Y, 1: Y.scale(u), 2: Y})
        y = DiffOp(Y.space, Qu, {0: Y.scale(u), 2: Y})
        calls = []
        derivative = type(u).derivative

        def counting(f):
            calls.append(f)
            return derivative(f)

        monkeypatch.setattr(type(u), "derivative", counting)
        once = len(y.coeffs) * x.degree() * len(Y.entries)
        x * y
        assert len(calls) == once
        calls.clear()
        x.product_trace(y, ["t"])
        assert len(calls) == once

    @SETTINGS
    @given(chain_cases())
    def test_chain_matches_unfused_chain(self, case):
        space, factors, traced = case
        got = chain(space, QQ, factors, traced)
        assert got == unfused_chain(space, QQ, factors, traced)

    def test_swapped_tables_fail(self, monkeypatch):
        # negative control: the kernel handed the kept table as the traced
        # one sums over the wrong legs, and the drawn cases catch it
        monkeypatch.setattr(
            tensor_module,
            "sparse_matmul_trace",
            lambda products, traced, kept: sparse_matmul_trace(products, kept, traced),
        )
        x, y, names = find(
            product_cases(None, small_ints.filter(bool)),
            lambda case: (
                case[0].product_trace(case[1], case[2]).entries
                != product_then_trace(*case).entries
            ),
            settings=settings(PRODUCT_SETTINGS, phases=[Phase.generate]),
        )
        assert x and y
