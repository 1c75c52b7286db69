"""Distinguished tensors: flips, skew tensors, r- and R-matrices."""

import ast
import inspect
import random

import pytest

from triggaudin import gaudin, qside, rmatrices, suites
from triggaudin.rationals import QQ, parse_rational, rational
from triggaudin.ratfun import FracField, PoleError
from triggaudin.rmatrices import (
    adjacent_q_chain,
    antisymmetrizer,
    diag_shift_d,
    diag_shift_rho,
    f_series,
    perm_q,
    perm_sign,
    permutation,
    plain_cycle_chain,
    r_classical,
    r_quantum,
    r_quantum_scaled,
    reduced_word,
    t_of_y,
    t_taylor,
    tc,
    tc_bar,
)
from triggaudin.series import QSeriesRing, SeriesRing, TruncSeries
from triggaudin.tensor import AuxTensor, Space, aux_leg

import rmatrix_reference
from tower_reference import Q, U, Qq, Qqu


def triple(N):
    return Space(N, [aux_leg("a1"), aux_leg("a2"), aux_leg("a3")])


def on(t, space, a, b):
    return t.place(space, "a%d" % a, "a%d" % b)


def rand_rational(rng, avoid=()):
    while True:
        x = rational(rng.randint(-9, 9), rng.randint(1, 9))
        if x and x not in avoid:
            return x


class TestBuildingBlocks:
    def test_flip_squares_to_identity(self):
        P = permutation(3, QQ)
        assert P * P == AuxTensor.identity(P.space, QQ)

    def test_skew_tensor_decomposition(self):
        # P + skew has only upper entries doubled; check the three agree
        # through T(y) at y = 0 and its Taylor data
        N = 3
        F = FracField("y", QQ)
        T = t_of_y(N, F, F.zero)
        P = permutation(N, F)
        assert T == P

    def test_t_taylor_pattern(self):
        N = 2
        assert t_taylor(N, QQ, 0) == permutation(N, QQ)
        assert t_taylor(N, QQ, 1) == tc(N, QQ)
        assert t_taylor(N, QQ, 3) == tc(N, QQ)
        assert t_taylor(N, QQ, 2) == tc_bar(N, QQ)
        assert t_taylor(N, QQ, 4) == tc_bar(N, QQ)

    def test_t_taylor_matches_series(self):
        # sum of the first orders at a rational point reproduces T(y)
        N = 2
        y = rational(1, 5)
        F = FracField("y", QQ)
        T = t_of_y(N, F, F.gen)
        at = T.map_entries(lambda f: f.eval(y), ring=QQ)
        direct = t_of_y(N, QQ, y)
        assert at == direct

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            t_of_y(2, QQ, rational(1))
        with pytest.raises(PoleError):
            r_classical(2, QQ, rational(1))

    def test_classical_r_entry(self):
        # entry (12)(21) is (1+x)/(1-x) + 1, entry (21)(12) is it minus 2
        N = 2
        x = rational(1, 3)
        r = r_classical(N, QQ, x)
        g = (1 + x) / (1 - x)
        sp = r.space
        assert r.entries[(sp.encode((0, 1)), sp.encode((1, 0)))] == g + 1
        assert r.entries[(sp.encode((1, 0)), sp.encode((0, 1)))] == g - 1


def _flip_rings():
    """(ring, q, x) for QQ, the pole ring Q(u), the Laurent ring
    Q[q^+-1, u^+-1] and Q(y); x is the argument of T and r."""
    Qu, QU, Fy = gaudin.Qu, qside.QU, FracField("y", QQ)
    return [
        pytest.param(QQ, rational(3, 2), rational(2, 7), id="QQ"),
        pytest.param(Qu, Qu.from_int(3), Qu.gen, id="Qu"),
        pytest.param(QU, QU.gens[0], QU.from_int(3), id="QU"),
        pytest.param(Fy, Fy.from_int(2), Fy.gen, id="Fy"),
    ]


FLIPS = ["permutation", "tc", "tc_bar", "t_of_y", "r_classical", "q_permutation"]


def _flip_args(name, q, x):
    return {"t_of_y": (x,), "r_classical": (x,), "q_permutation": (q,)}.get(name, ())


class TestWeightedFlips:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", FLIPS)
    @pytest.mark.parametrize("ring, q, x", _flip_rings())
    def test_builders_match_their_entry_by_entry_form(self, N, name, ring, q, x):
        args = _flip_args(name, q, x)
        want = getattr(rmatrix_reference, name)(N, ring, *args)
        assert getattr(rmatrices, name)(N, ring, *args) == want

    @pytest.mark.parametrize("name", ["tc", "q_permutation", "r_classical"])
    def test_transposed_weights_fail(self, name, monkeypatch):
        # negative control: the layout filled with weight(j, i); these
        # three have c_ji != c_ij, so they differ from N = 2 on
        real = rmatrices.weighted_flip

        def transposed(N, ring, weight):
            return real(N, ring, lambda i, j: weight(j, i))

        monkeypatch.setattr(rmatrices, "weighted_flip", transposed)
        args = _flip_args(name, rational(3, 2), rational(2, 7))
        for N in range(1, 5):
            want = getattr(rmatrix_reference, name)(N, QQ, *args)
            assert (getattr(rmatrices, name)(N, QQ, *args) == want) == (N == 1)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_r_quantum_matches_its_entry_formula(self, N):
        # over Q(q) at a rational x and over Q(q)(u) at x = u
        for ring, q, x in ((Qq, Qq.gen, Qq.embed(rational(2, 7))), (Qqu, Q, U)):
            want = rmatrix_reference.r_quantum(N, ring, q, x)
            assert r_quantum(N, ring, q, x) == want
        with pytest.raises(PoleError):
            r_quantum(N, Qq, Qq.gen, Qq.gen * Qq.gen)

    def test_only_the_quantum_r_matrix_is_built_entry_by_entry(self):
        # structural guard: every flip goes through weighted_flip
        tree = ast.parse(inspect.getsource(rmatrices))
        callers = {
            f.name
            for f in tree.body
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "two_leg_tensor"
        }
        assert callers == {"r_quantum_scaled"}


class TestClassicalAxioms:
    def test_ybe(self):
        rng = random.Random(5)
        for N in (2, 3):
            space = triple(N)
            for _ in range(4):
                x = rand_rational(rng, (rational(1),))
                y = rand_rational(rng, (rational(1),))
                if x * y == rational(1):
                    continue
                r12 = on(r_classical(N, QQ, x), space, 1, 2)
                r13 = on(r_classical(N, QQ, x * y), space, 1, 3)
                r23 = on(r_classical(N, QQ, y), space, 2, 3)
                s = (
                    r12.commutator(r13)
                    + r12.commutator(r23)
                    + r13.commutator(r23)
                )
                assert s.is_zero()

    def test_skew_symmetry(self):
        rng = random.Random(6)
        N = 3
        space = Space(N, [aux_leg("a1"), aux_leg("a2")])
        for _ in range(4):
            x = rand_rational(rng, (rational(1), rational(-1)))
            r12 = on(r_classical(N, QQ, x), space, 1, 2)
            r21 = on(r_classical(N, QQ, rational(1) / x), space, 2, 1)
            assert (r12 + r21).is_zero()


class TestQuantumAxioms:
    def test_ybe_symbolic_q(self):
        rng = random.Random(7)
        N = 2
        space = triple(N)
        q = Qq.gen
        for _ in range(3):
            x = Qq.embed(rand_rational(rng))
            y = Qq.embed(rand_rational(rng))
            R12 = on(r_quantum_scaled(N, Qq, q, x), space, 1, 2)
            R13 = on(r_quantum_scaled(N, Qq, q, x * y), space, 1, 3)
            R23 = on(r_quantum_scaled(N, Qq, q, y), space, 2, 3)
            assert (R12 * R13 * R23 - R23 * R13 * R12).is_zero()

    @pytest.mark.parametrize("N", [2, 3])
    def test_shifted_argument_fails_ybe_task(self, N, monkeypatch):
        # negative control: every R-matrix evaluated at x + 1
        scaled = suites.r_quantum_scaled

        def shifted(n, ring, q, x):
            return scaled(n, ring, q, x + ring.one)

        monkeypatch.setattr(suites, "r_quantum_scaled", shifted)
        args = {"N": N, "count": 5}
        (rec,) = suites.run_tasks([("ybe", "claim", "task_quantum_ybe", args)])
        assert rec["status"] == "fail"
        assert len(rec["witness"]) == 5
        for w in rec["witness"]:
            assert set(w) == {"x", "y"}
            assert all(str(parse_rational(v)) == v for v in w.values())

    def test_scaled_matches_plain(self):
        N = 2
        q = Qq.gen
        x = Qq.embed(rational(2, 7))
        den = q - x / q
        plain = r_quantum(N, Qq, q, x)
        scaled = r_quantum_scaled(N, Qq, q, x)
        assert plain.scale(den) == scaled

    def test_classical_limit_of_R(self):
        # (R(x) - 1) / (q-1) at q=1 recovers r(x) - diag part pattern:
        # check entrywise on the 2x2 case at a rational x
        N = 2
        x = rational(1, 2)
        q = Qq.gen
        R = r_quantum(N, Qq, q, Qq.embed(x))
        r = r_classical(N, QQ, x)
        one = AuxTensor.identity(R.space, Qq)
        diff = R - one
        lim = diff.map_entries(
            lambda f: (f / (q - Qq.one)).eval(QQ.one), ring=QQ
        )
        # the first-order term is r(x) shifted by a central scalar:
        # lim - r must be a multiple of the identity
        delta = lim - r
        cand = delta.entries.get((0, 0), QQ.zero)
        assert delta == AuxTensor.scalar(delta.space, QQ, cand)


class TestPermutations:
    def test_reduced_word_reassembles(self):
        rng = random.Random(8)
        for _ in range(10):
            k = rng.randint(2, 5)
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            word = reduced_word(perm)
            # apply the adjacent swaps to the identity in word order
            p = list(range(1, k + 1))
            for a in word:
                p[a - 1], p[a] = p[a], p[a - 1]
            assert p == perm
            assert perm_sign(perm) == (-1) ** len(word)

    def test_perm_q_braid_independence(self):
        # the q-permutation of a transposition squares to the identity
        # twisted correctly: P^q_s P^q_{s^-1} with s an involution is 1
        N = 2
        q = Qq
        pq = perm_q((2, 1), N, q, q.gen)
        sp = pq.space
        assert pq * pq == AuxTensor.identity(sp, q)

    def test_plain_cycle_chain_is_the_q_chain_at_q_one(self):
        # P_{(k,...,1)} = P_{k-1,k} ... P_{12}, and P^q = P at q = 1
        for N in (2, 3):
            for k in (2, 3, 4):
                space = Space(N, [aux_leg("a%d" % i) for i in range(1, k + 1)])
                plain = plain_cycle_chain(space, QQ, tuple(range(k, 0, -1)))
                positions = list(range(k - 1, 0, -1))
                assert plain == adjacent_q_chain(space, QQ, QQ.one, positions)
                # negative control: away from q = 1 the chains differ
                assert plain != adjacent_q_chain(space, QQ, rational(2), positions)

    def test_wrong_cycle_target_fails_trace_task(self, monkeypatch):
        # negative control: the off-diagonal flip replaced by the skew tensor
        monkeypatch.setattr(suites, "tc_bar", suites.tc)
        for N in (2, 3):
            args = {"N": N, "k": 3}
            (rec,) = suites.run_tasks([("trace", "claim", "task_trace_cycle", args)])
            assert rec["status"] == "fail"
            assert rec["witness"]

    def test_antisymmetrizer_idempotent(self):
        N = 2
        A = antisymmetrizer(2, N, Qq, Qq.gen)
        assert A * A == A

    def test_antisymmetrizer_rank_one_at_top(self):
        # k = N: image is one-dimensional, so trace is 1
        N = 2
        A = antisymmetrizer(2, N, Qq, Qq.gen)
        assert A.trace() == Qq.one


class TestDiagonals:
    def test_rho_entries(self):
        rho = diag_shift_rho(3, QQ)
        sp = rho.space
        assert rho.entries[(0, 0)] == rational(2)
        assert (1, 1) not in rho.entries
        assert rho.entries[(2, 2)] == rational(-2)

    def test_d_entries(self):
        D = diag_shift_d(2, Qq, Qq.gen)
        q = Qq.gen
        assert D.entries[(0, 0)] == q
        assert D.entries[(1, 1)] == Qq.one / q


class TestNormalizerSeries:
    def test_functional_equation(self):
        # f(x q^{2N}) (1-x)(1-x q^{2N}) = f(x) (1-xq^2)(1-x q^{2N-2})
        N = 2
        order = 5
        q = Qq.gen
        f = f_series(N, Qq, q, order)
        lhs = f.scale_var(q ** (2 * N))

        def lin(c):
            return TruncSeries("x", Qq, order, [Qq.one, -c])

        left = lhs * lin(Qq.one) * lin(q ** (2 * N))
        right = f * lin(q * q) * lin(q ** (2 * N - 2))
        assert left == right

    def test_constant_term(self):
        f = f_series(3, Qq, Qq.gen, 3)
        assert f.coefficient(0) == Qq.one

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_eps_series_is_the_expansion_at_one(self, N):
        # f over eps-series at q = 1 + eps, generic and integer, against
        # the Q(q) instance expanded at q = 1: no pole there, and equal
        # eps-coefficients on the eps window each f_k keeps (f_k loses k
        # orders of E = 6)
        order = 4
        f_q = f_series(N, Qq, Qq.gen, order)
        for E in (SeriesRing("eps", QQ, order + 2), QSeriesRing("eps", order + 2)):
            f_eps = f_series(N, E, E.one + E.gen, order)
            for k in range(order + 1):
                fk = f_eps.coefficient(k)
                assert fk.order == E.order - k
                exp = f_q.coefficient(k).expand_at(QQ.one, -3, 2)
                assert exp[:3] == [QQ.zero] * 3
                assert exp[3:] == [fk.coefficient(t) for t in range(3)]
