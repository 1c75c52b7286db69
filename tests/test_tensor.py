"""Sparse tensor operators: embedding, products, traces, kernels."""

import pytest

from triggaudin.kernels import sparse_add
from triggaudin.rationals import QQ, rational
from triggaudin.tensor import (
    AuxTensor,
    Space,
    aux_leg,
    quantum_leg,
    single_leg_matrix,
    two_leg_tensor,
)


def e_matrix(N, i, j, leg=None):
    """Elementary matrix e_ij on one leg, 1-based."""
    return single_leg_matrix(
        N, QQ, lambda a, b: QQ.one if (a, b) == (i, j) else None, leg
    )


class TestSpace:
    def test_encode_decode_roundtrip(self):
        sp = Space(3, [aux_leg("a"), quantum_leg("s"), aux_leg("b")])
        for flat in range(sp.dim):
            assert sp.encode(sp.decode(flat)) == flat

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
        x = e_matrix(2, 1, 2, aux_leg("a")).embed(sp, {"a": "a"})
        ident = AuxTensor.identity(Space(2, [aux_leg("b")]), QQ).embed(sp, {"b": "b"})
        assert x * ident == x

    def test_embed_order_irrelevant_for_disjoint_legs(self):
        sp = Space(2, [aux_leg("a"), aux_leg("b")])
        x = e_matrix(2, 1, 2, aux_leg("a")).embed(sp, {"a": "a"})
        y = e_matrix(2, 2, 1, aux_leg("b")).embed(sp, {"b": "b"})
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
        x = e_matrix(2, 1, 1, aux_leg("a")).embed(sp, {"a": "a"})
        y = e_matrix(2, 2, 2, aux_leg("b")).embed(sp, {"b": "b"})
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
