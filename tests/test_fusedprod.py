"""Fused operator products against the per-term loops they replaced.

``DiffOp`` and ``QDiffOp`` products sum every coefficient product of one
output degree at once (:meth:`AuxTensor.product_sum`), with C(j, i)
folded into the left coefficient.  Here ``*`` and ``product_trace``
(one and two traced legs) are compared with
:mod:`operator_reference`, which forms, scales, traces and adds each
term on its own, over rings on every path of the kernel: the pole ring
``gaudin.Qu`` and the Laurent ring ``qside.QU`` (one ``dot`` per entry),
rational constants and u-series over ``Fraction``, and u-series over the
PBW algebra, whose entries do not commute (a running sum of ``v * w``).
The negative controls show that the comparison sees a kernel that
multiplies in the wrong order and a product that drops C(j, i).
"""

import inspect
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triggaudin import gaudin, kernels, qside, weyl
from triggaudin import tensor as tensor_module
from triggaudin.pbw import PBWAlg, PBWElement
from triggaudin.polering import PoleFun
from triggaudin.rationals import QQ
from triggaudin.series import SeriesRing, TruncSeries
from triggaudin.tensor import AuxTensor, Space, aux_leg, quantum_leg
from triggaudin.weyl import DiffOp, QDiffOp

import operator_reference

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
PBW_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True)

small = st.integers(min_value=-3, max_value=3)
nonzero = small.filter(bool)


class Constant(Fraction):
    """A rational constant in u: its derivative is 0 and a shift leaves it."""

    def derivative(self):
        return Constant(0)

    def scale_var(self, factor):
        return self


class Shift(PBWElement):
    """A central PBW element with powers, to shift u in a QDiffOp."""

    __slots__ = ()

    def __pow__(self, k):
        out = self.alg.one
        for _ in range(k):
            out = out * self
        return out


Qu, QU = gaudin.Qu, qside.QU
SERIES = SeriesRing("u", QQ, 4)
ALG = PBWAlg(2)
PBW_SERIES = SeriesRing("u", ALG, 2)
# 2K, K the central element
PBW_SHIFT = Shift(ALG, {((), 1): 2})


def _pole():
    u = Qu.gen
    return st.builds(
        lambda a, b, c: (Qu.from_int(a) * u + Qu.from_int(b)) / (u - Qu.from_int(c)),
        small, nonzero, nonzero,
    )


def _laurent():
    q, v = QU.gens
    return st.builds(
        lambda a, i, j: QU.from_int(a) * q**i * v**j,
        nonzero, st.integers(-2, 2), st.integers(-2, 2),
    )


def _series():
    return st.builds(
        lambda cs: TruncSeries("u", QQ, 4, [Fraction(c) for c in cs]),
        st.lists(small, min_size=1, max_size=4),
    ).filter(bool)


def _pbw_series():
    gens = st.builds(
        lambda i, j, n, c: ALG.generator(i, j, n, c),
        st.integers(1, 2), st.integers(1, 2), st.integers(-1, 1), nonzero,
    )
    return st.builds(
        lambda cs: TruncSeries("u", ALG, 2, cs), st.lists(gens, min_size=1, max_size=2)
    ).filter(bool)


# (kind, ring, extra parameters, entries, settings): DiffOp needs entries
# with a derivative and QDiffOp entries with a shift, so the pole ring
# serves only DiffOp and the Laurent ring only QDiffOp
CASES = [
    pytest.param(DiffOp, Qu, (), _pole(), SETTINGS, id="DiffOp-Qu"),
    pytest.param(DiffOp, QQ, (), st.builds(Constant, nonzero), SETTINGS, id="DiffOp-QQ"),
    pytest.param(DiffOp, SERIES, (), _series(), SETTINGS, id="DiffOp-QQ[[u]]"),
    pytest.param(DiffOp, PBW_SERIES, (), _pbw_series(), PBW_SETTINGS, id="DiffOp-pbw"),
    pytest.param(QDiffOp, QU, (QU.gens[0] ** -2,), _laurent(), SETTINGS, id="QDiffOp-QU"),
    pytest.param(
        QDiffOp, QQ, (Fraction(1, 4),), st.builds(Constant, nonzero), SETTINGS,
        id="QDiffOp-QQ",
    ),
    pytest.param(
        QDiffOp, SERIES, (Fraction(-1, 2),), _series(), SETTINGS, id="QDiffOp-QQ[[u]]"
    ),
    pytest.param(
        QDiffOp, PBW_SERIES, (PBW_SHIFT,), _pbw_series(), PBW_SETTINGS,
        id="QDiffOp-pbw",
    ),
]

SPACE = Space(2, [aux_leg("t"), aux_leg("b"), quantum_leg("s")])


@st.composite
def operator_pairs(draw, kind, ring, params, entries):
    """Two operators of degree 0-3 on (t, b, one site), N = 2, each
    coefficient with up to five entries, and one or two legs to trace."""
    index = st.integers(min_value=0, max_value=SPACE.dim - 1)
    tensors = st.dictionaries(st.tuples(index, index), entries, min_size=1, max_size=5)

    def op():
        degrees = draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
        return kind(
            SPACE, ring, {d: AuxTensor(SPACE, ring, draw(tensors)) for d in degrees},
            *params,
        )

    names = draw(st.sampled_from([["t"], ["b"], ["t", "b"]]))
    return op(), op(), names


@pytest.mark.parametrize("kind, ring, params, entries, config", CASES)
def test_fused_products_match_the_per_term_loop(kind, ring, params, entries, config):
    @config
    @given(operator_pairs(kind, ring, params, entries))
    def check(case):
        x, y, names = case
        assert x * y == operator_reference.product(x, y)
        got = x.product_trace(y, names)
        assert got == operator_reference.product(x, y, names)
        assert got.space == SPACE.drop(names)

    check()


def test_zero_factors():
    x = DiffOp(SPACE, Qu, {1: AuxTensor.identity(SPACE, Qu)})
    zero = DiffOp.zero(SPACE, Qu)
    for a, b in ((x, zero), (zero, x), (zero, zero)):
        assert (a * b).is_zero()
        got = a.product_trace(b, ["t"])
        assert got.is_zero() and got.space == SPACE.drop(["t"])


# -- negative controls ---------------------------------------------------


def swapped_kernel():
    """``kernels.sparse_matmul_sum`` with its running sum built from w * v."""
    source = inspect.getsource(kernels.sparse_matmul_sum)
    assert source.count("p = v * w") == 1
    scope = dict(vars(kernels))
    exec(source.replace("p = v * w", "p = w * v"), scope)
    return scope["sparse_matmul_sum"]


@pytest.mark.parametrize("kind, params", [(DiffOp, ()), (QDiffOp, (PBW_SHIFT,))])
def test_swapped_factors_fail_on_pbw(kind, params, monkeypatch):
    # negative control: the kernel's running sum built from w * v;
    # E_12[0] and E_21[0] do not commute, so every product of the two
    # changes, summed (degree 1) or alone (degrees 0 and 2)
    def op(i, j):
        e = TruncSeries("u", ALG, 2, [ALG.generator(i, j, 0)])
        t = AuxTensor.scalar(SPACE, PBW_SERIES, e)
        return kind(SPACE, PBW_SERIES, {0: t, 1: t}, *params)

    x, y = op(1, 2), op(2, 1)
    assert x * y == operator_reference.product(x, y)
    swapped = swapped_kernel()
    for module in (kernels, tensor_module):
        monkeypatch.setattr(module, "sparse_matmul_sum", swapped)
    got = x * y
    want = operator_reference.product(x, y)
    assert all(got.coefficient(d) != want.coefficient(d) for d in range(3))
    assert x.product_trace(y, ["t"]) != operator_reference.product(x, y, ["t"])


def test_dropped_binomial_fails_on_diffop(monkeypatch):
    # negative control: d^2 u = u d^2 + 2 d, and without C(2, 1) the
    # term 2 d reads d
    d2 = DiffOp(SPACE, Qu, {2: AuxTensor.identity(SPACE, Qu)})
    u = DiffOp(SPACE, Qu, {0: AuxTensor.scalar(SPACE, Qu, Qu.gen)})
    want = operator_reference.product(d2, u)
    assert d2 * u == want
    assert want.coefficient(1) == AuxTensor.scalar(SPACE, Qu, Qu.from_int(2))
    monkeypatch.setattr(weyl, "comb", lambda j, i: 1)
    assert d2 * u != want
    assert d2.product_trace(u, ["t"]) != operator_reference.product(d2, u, ["t"])


# -- structural guard ------------------------------------------------------


def test_one_dot_per_output_entry(monkeypatch):
    # each nonzero entry of each output degree is one PoleFun.dot over
    # all the (j, i, k) terms that land on it; no entry here sums to zero.
    # ``*`` of the ring is itself a one-pair dot, so only the kernel's
    # reductions are counted
    u = Qu.gen
    space = Space(2, [aux_leg("t"), quantum_leg("s")])
    Y = AuxTensor(
        space, Qu,
        {
            (r, c): Qu.from_int(r + 2 * c + 1) / (u - Qu.from_int(r + 3))
            for r in range(4)
            for c in range(4)
        },
    )
    x = DiffOp(space, Qu, {0: Y, 1: Y.scale(u), 2: Y})
    y = DiffOp(space, Qu, {0: Y.scale(u), 1: Y})
    calls = []
    dot = PoleFun.dot

    def counting(pairs):
        if sys._getframe(1).f_code.co_filename == kernels.__file__:
            calls.append(len(pairs))
        return dot(pairs)

    monkeypatch.setattr(PoleFun, "dot", staticmethod(counting))
    got = x * y
    assert got == operator_reference.product(x, y)
    assert len(calls) == sum(len(t.entries) for t in got.coeffs.values())
    assert max(calls) > 1
    calls.clear()
    traced = x.product_trace(y, ["t"])
    assert len(calls) == sum(len(t.entries) for t in traced.coeffs.values())
    assert max(calls) > 1
