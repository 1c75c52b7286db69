"""Operator-valued differential and shift operators."""

import pytest

from triggaudin.rationals import QQ, rational
from triggaudin.ratfun import FracField
from triggaudin.tensor import AuxTensor, Space, aux_leg
from triggaudin.weyl import DiffOp, QDiffOp

import field_tower
from tower_reference import Qq

F = FracField("u", QQ)
SP = Space(2, [aux_leg("a")])


def scalar_op(f, degree=0):
    return DiffOp(SP, F, {degree: AuxTensor.scalar(SP, F, f)})


class TestDiffOp:
    def test_weyl_relation(self):
        # d . u = u . d + 1
        d = DiffOp(SP, F, {1: AuxTensor.identity(SP, F)})
        g = scalar_op(F.gen)
        prod = d * g
        expect = g * d + DiffOp.identity(SP, F)
        assert prod == expect

    def test_associativity(self):
        u = F.gen
        d = DiffOp(SP, F, {1: AuxTensor.identity(SP, F)})
        a = scalar_op(u * u) + d
        b = scalar_op(F.one / (F.one - u))
        c = d * d + scalar_op(u, degree=1)
        assert (a * b) * c == a * (b * c)

    def test_constant_term_is_action_on_one(self):
        u = F.gen
        op = scalar_op(u, degree=1) + scalar_op(u * u)
        # (u d + u^2) . 1 = u^2
        assert op.coefficient(0) == AuxTensor.scalar(SP, F, u * u)

    def test_partial_trace_commutes_with_sum(self):
        sp2 = Space(2, [aux_leg("a"), aux_leg("b")])
        x = DiffOp(sp2, F, {0: AuxTensor.identity(sp2, F)})
        y = DiffOp(sp2, F, {1: AuxTensor.identity(sp2, F)})
        lhs = (x + y).partial_trace(["b"])
        rhs = x.partial_trace(["b"]) + y.partial_trace(["b"])
        assert lhs == rhs


class TestQDiffOp:
    def test_shift_rule(self):
        # delta . u = (shift * u) . delta
        Fu = field_tower.FracField("u", Qq)
        sp = Space(2, [aux_leg("a")])
        shift = Qq.one / (Qq.gen * Qq.gen)
        delta = QDiffOp(sp, Fu, {1: AuxTensor.identity(sp, Fu)}, shift)
        g = QDiffOp(sp, Fu, {0: AuxTensor.scalar(sp, Fu, Fu.gen)}, shift)
        prod = delta * g
        shifted = QDiffOp(
            sp,
            Fu,
            {1: AuxTensor.scalar(sp, Fu, Fu.gen.scale(shift))},
            shift,
        )
        assert prod == shifted

    def test_delta_powers_compose(self):
        Fu = field_tower.FracField("u", Qq)
        sp = Space(2, [aux_leg("a")])
        shift = Qq.one / (Qq.gen * Qq.gen)
        u_op = QDiffOp(sp, Fu, {0: AuxTensor.scalar(sp, Fu, Fu.gen)}, shift)
        delta = QDiffOp(sp, Fu, {1: AuxTensor.identity(sp, Fu)}, shift)
        # delta^2 u = u shift^2 delta^2
        lhs = delta * (delta * u_op)
        rhs = QDiffOp(
            sp,
            Fu,
            {2: AuxTensor.scalar(sp, Fu, Fu.gen.scale(shift * shift))},
            shift,
        )
        assert lhs == rhs


class TestDegrees:
    def test_negative_diffop_degree_rejected(self):
        with pytest.raises(ValueError):
            DiffOp(SP, F, {-1: AuxTensor.identity(SP, F)})

    def test_negative_qdiffop_degree_rejected(self):
        Fu = field_tower.FracField("u", Qq)
        shift = Qq.one / (Qq.gen * Qq.gen)
        ident = AuxTensor.identity(SP, Fu)
        u_op = QDiffOp(SP, Fu, {0: ident.scale(Fu.gen)}, shift)
        with pytest.raises(ValueError):
            QDiffOp(SP, Fu, {-1: ident}, shift) * u_op


class TestEquality:
    def test_diffop_compares_ring(self):
        assert DiffOp.zero(SP, QQ) != DiffOp.zero(SP, F)
        assert DiffOp.zero(SP, F) == DiffOp.zero(SP, F)

    def test_qdiffop_compares_ring_and_shift(self):
        shift = Qq.one / (Qq.gen * Qq.gen)
        Fq = field_tower.FracField("u", Qq)
        assert QDiffOp.zero(SP, Qq, shift) != QDiffOp.zero(SP, Fq, shift)
        assert QDiffOp.zero(SP, Fq, shift) != QDiffOp.zero(SP, Fq, Qq.gen)
        assert QDiffOp.zero(SP, Fq, shift) == QDiffOp.zero(SP, Fq, shift)
