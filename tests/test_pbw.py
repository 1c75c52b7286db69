"""Symbolic mode-algebra layer: bracket, normal ordering, coefficients."""

import gc
import random
import weakref

import pytest

from triggaudin.rationals import QQ, rational
from triggaudin import gaudin, pbw, suites

import full_space_routes


def alg2():
    return pbw.PBWAlg(2)


class TestBracket:
    def test_example(self):
        # [E_12[1], E_21[-1]] = E_11[0] - E_22[0] + K
        alg = alg2()
        got = alg.bracket(pbw.mode(1, 2, 1), pbw.mode(2, 1, -1))
        expect = (
            alg.generator(1, 1, 0)
            - alg.generator(2, 2, 0)
            + alg.central()
        )
        assert got == expect

    def test_matches_element_commutator(self):
        alg = alg2()
        rng = random.Random(11)
        for _ in range(20):
            a = (rng.randint(-2, 2), rng.randint(1, 2), rng.randint(1, 2))
            b = (rng.randint(-2, 2), rng.randint(1, 2), rng.randint(1, 2))
            x = alg.generator(a[1], a[2], a[0])
            y = alg.generator(b[1], b[2], b[0])
            assert x.commutator(y) == alg.bracket(a, b)

    def test_jacobi(self):
        alg = alg2()
        rng = random.Random(12)
        for _ in range(15):
            xs = [
                alg.generator(rng.randint(1, 2), rng.randint(1, 2), rng.randint(-2, 2))
                for _ in range(3)
            ]
            a, b, c = xs
            s = (
                a.commutator(b.commutator(c))
                + b.commutator(c.commutator(a))
                + c.commutator(a.commutator(b))
            )
            assert s.is_zero()


class TestNormalOrder:
    def test_associativity(self):
        alg = alg2()
        rng = random.Random(13)
        for _ in range(10):
            xs = [
                alg.generator(
                    rng.randint(1, 2),
                    rng.randint(1, 2),
                    rng.randint(-1, 1),
                    QQ.from_int(rng.randint(-3, 3)) or QQ.one,
                )
                for _ in range(3)
            ]
            a, b, c = xs
            assert (a * b) * c == a * (b * c)

    def test_cache_not_mutated_by_later_products(self):
        alg = alg2()
        word = (pbw.mode(1, 2, 1), pbw.mode(2, 1, -1))
        first = alg.normal_order(word)
        snapshot = dict(first.terms)
        # stir the cache with unrelated heavy products
        x = alg.generator(1, 2, 1) * alg.generator(2, 1, -1)
        y = x * x
        assert not y.is_zero()
        assert alg.normal_order(word).terms == snapshot

    def test_sorted_word_is_basis_element(self):
        alg = alg2()
        word = (pbw.mode(1, 2, -1), pbw.mode(1, 1, 1))
        assert alg.normal_order(word).terms == {(word, 0): QQ.one}


class TestVacuum:
    def test_creation_survives(self):
        alg = alg2()
        x = alg.generator(1, 2, 0) + alg.generator(1, 1, -1)
        assert x.vacuum_image(QQ.from_int(-2)) == x

    def test_annihilation_dies(self):
        alg = alg2()
        assert alg.generator(2, 1, 0).vacuum_image(QQ.zero).is_zero()
        assert alg.generator(1, 1, 1).vacuum_image(QQ.zero).is_zero()

    def test_central_element_specializes(self):
        alg = alg2()
        img = alg.central().vacuum_image(QQ.from_int(-2))
        assert img == alg.from_int(-2)


class TestThetaSymbolic:
    def test_m1_closed_form(self):
        N = 2
        coeffs = pbw.theta_symbolic(N, 1, 3)
        alg = pbw.PBWAlg(N)
        # top derivative coefficient: 2N u
        assert coeffs[(1, 1)] == alg.from_int(2 * N)
        # constant term: sum of the zero modes on the diagonal
        diag0 = alg.zero
        for i in range(1, N + 1):
            diag0 = diag0 + alg.generator(i, i, 0)
        assert coeffs[(0, 0)] == diag0
        # u^d term, d >= 1: twice the diagonal modes at depth d
        for d in (1, 2, 3):
            expect = alg.zero
            for i in range(1, N + 1):
                expect = expect + alg.generator(i, i, -d, QQ.from_int(2))
            assert coeffs[(0, d)] == expect

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("m", [1, 2])
    def test_against_full_space(self, m, shifted, monkeypatch):
        u_order = 3
        ctx = pbw.symbolic_context(2, u_order, m)
        assert ctx.theta_generating(m, shifted) == full_space_routes.theta_generating(
            ctx, m, shifted
        )
        fast = pbw.theta_symbolic(2, m, u_order, shifted)
        monkeypatch.setattr(
            gaudin.ThetaContext, "theta_mbar", full_space_routes.theta_mbar
        )
        assert fast and fast == pbw.theta_symbolic(2, m, u_order, shifted)

    def test_algebra_freed_with_result(self):
        # no reference cycle through the algebra: reference counting
        # alone frees it once the last element is dropped
        enabled = gc.isenabled()
        gc.disable()
        try:
            coeffs = pbw.theta_symbolic(2, 2, 2)
            alg = weakref.ref(next(iter(coeffs.values())).alg)
            del coeffs
            assert alg() is None
        finally:
            if enabled:
                gc.enable()

    def test_envelope_rejected(self):
        with pytest.raises(ValueError):
            pbw.theta_symbolic(3, 1, 1)
        with pytest.raises(ValueError):
            pbw.theta_symbolic(2, 4, 1)
        with pytest.raises(ValueError):
            pbw.theta_symbolic(2, 1, 5)


class TestChecks:
    def test_commute_small(self):
        orders = [(k, d) for k in range(3) for d in range(3)]
        assert pbw.commute_check(2, 1, 2, orders)["pass"]

    def test_commute_shifted_small(self):
        orders = [(k, d) for k in range(2) for d in range(2)]
        assert pbw.commute_check(2, 1, 1, orders, shifted=True)["pass"]

    def test_vacuum_invariance_small(self):
        orders = [(k, d) for k in range(2) for d in range(2)]
        result = pbw.vacuum_invariance_check(2, 1, orders, 1, shifted=True)
        assert result["pass"]

    def test_shifted_against_unshifted_fails_with_witness(self, monkeypatch):
        # negative control: the first factor of each pair shifted, the
        # second not; shifted m1 = 1 still commutes with unshifted
        # m2 = 2, so both orders are 2
        theta = pbw.theta_symbolic
        calls = []

        def first_shifted(N, m, u_order, shifted=False):
            calls.append(m)
            return theta(N, m, u_order, shifted or len(calls) == 1)

        monkeypatch.setattr(pbw, "theta_symbolic", first_shifted)
        args = {"m1": 2, "m2": 2, "d_max": 3, "shifted": False}
        (rec,) = suites.run_tasks([("pbw", "claim", "task_pbw_commut", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and all(w["diff"] for w in rec["witness"])

    def test_unshifted_invariance_fails_with_witness(self, monkeypatch):
        # negative control: the unshifted coefficients; at m = 1 they
        # still pass, so m = 2 is the first order where the shift counts
        theta = pbw.theta_symbolic
        monkeypatch.setattr(
            pbw,
            "theta_symbolic",
            lambda N, m, u_order, shifted=False: theta(N, m, u_order, False),
        )
        args = {"m": 2, "d_max": 2, "v_order": 3}
        (rec,) = suites.run_tasks([("pbw", "claim", "task_pbw_vacuum", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and all(w["image"] for w in rec["witness"])


class TestEvaluation:
    def test_matches_operators(self):
        pts = (rational(1), rational(3))
        rep = gaudin.GaudinRep(2, pts)
        ev = pbw.evaluation_map(pts)
        u_order = 2
        for m in (1, 2):
            sym = pbw.theta_symbolic(2, m, u_order)
            theta = gaudin.theta_mbar(rep, m)
            ks = sorted(set(kd[0] for kd in sym) | set(theta.coeffs))
            for k in ks:
                tensor = theta.coefficient(k)
                for d in range(u_order + 1):
                    target = tensor.map_entries(
                        lambda f: f.expand_at(QQ.zero, d, d)[0], ring=QQ
                    )
                    got = ev(sym[(k, d)]) if (k, d) in sym else None
                    if got is None:
                        assert target.is_zero()
                    else:
                        assert (got - target).is_zero()
