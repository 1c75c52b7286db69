"""q-side layer: exchange relation, fused elements, classical limits."""

import pytest

from triggaudin.rationals import QQ, rational
from triggaudin.ratfun import FracField
from triggaudin.rmatrices import r_quantum_scaled
from triggaudin.series import SeriesRing, TruncSeries
from triggaudin import qside, suites

import tower_reference
from tower_reference import Q, U, Qqu, to_tower


def qrep22():
    return qside.QRep(2, [rational(1), rational(3)])


class TestExchange:
    def test_rll_one_site(self):
        rep = qside.QRep(2, [rational(1)])
        assert qside.rll_check(rep)

    def test_rll_two_sites(self):
        assert qside.rll_check(qrep22())

    def test_rll_n3_two_sites(self):
        assert qside.rll_check(qside.QRep(3, [rational(1, 2), rational(3)]))

    def test_swapped_argument_fails(self):
        # negative control: R(v/u) u in place of R(u/v) v breaks the relation
        rep = qrep22()
        q, u, v = qside.QUV.gens
        wrong = r_quantum_scaled(rep.N, qside.QUV, q, v / u).scale(u)
        assert not qside.exchange_difference(rep, wrong).is_zero()
        right = r_quantum_scaled(rep.N, qside.QUV, q, u / v).scale(v)
        assert qside.exchange_difference(rep, right).is_zero()


class TestFusedElements:
    def test_antisym_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            qside.bethe(qrep22(), "antisym", 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            qside.bethe(qrep22(), "powers", 1)

    def test_family_commutes(self):
        rep = qrep22()
        assert qside.bethe_commut_check(rep, ("antisym", 1, False), ("newton", 2, False))
        assert qside.bethe_commut_check(rep, ("antisym", 2, True), ("newton", 1, True))

    def test_untwisted_and_twisted_do_not_commute(self):
        # negative control: the two families are commutative separately only
        rep = qrep22()
        assert not qside.bethe_commut_check(
            rep, ("antisym", 1, False), ("antisym", 1, True)
        )

    def test_top_antisym_element_is_central(self):
        # k = N antisymmetrized element commutes even across the twist
        rep = qrep22()
        assert qside.bethe_commut_check(rep, ("antisym", 2, False), ("newton", 2, True))


class TestTracedProduct:
    def test_recursion_matches_collapse(self):
        rep = qrep22()
        for m in (1, 2):
            assert qside.mcal(rep, m) == qside.mcal_collapsed(rep, m)

    def test_recursion_matches_collapse_twisted(self):
        rep = qrep22()
        assert qside.mcal(rep, 1, with_D=True) == qside.mcal_collapsed(
            rep, 1, with_D=True
        )

    def test_chain_collapse_symbolic(self):
        for m in (2, 3, 4):
            for subset in ([], [1], [1, 3], [2], list(range(1, m + 1))):
                subset = [a for a in subset if a <= m]
                assert qside.trace_identity_pi(m, subset, 2)


class TestAgainstTower:
    """The cleared Laurent products against the Q(q)(u) tower reference."""

    @staticmethod
    def cleared(rep, m, k):
        """(q-1)^m prod_{j<k} den(u q^{-2j}), built in the tower."""
        out = (Q - Qqu.one) ** m
        for j in range(k):
            for a in rep.points:
                out = out * (Q - U * Q ** (-2 * j - 1) / qside.embed_rational(Qqu, a))
        return out

    @pytest.mark.parametrize("with_D", [False, True])
    def test_products_entry_by_entry(self, with_D):
        rep = qrep22()
        for m in (1, 2):
            for fast_fn, ref_fn in (
                (qside.mcal, tower_reference.mcal),
                (qside.mcal_collapsed, tower_reference.mcal_collapsed),
            ):
                fast = fast_fn(rep, m, with_D)
                ref = ref_fn(rep, m, with_D)
                assert sorted(fast.coeffs) == sorted(ref.coeffs) == list(range(m + 1))
                for k, t in ref.coeffs.items():
                    factor = self.cleared(rep, m, k)
                    assert fast.coeffs[k].map_entries(to_tower, ring=Qqu) == t.scale(
                        factor
                    )
                    assert to_tower(qside.cleared_factor(rep, k)) * (
                        Q - Qqu.one
                    ) ** m == factor

    @pytest.mark.parametrize("with_D", [False, True])
    def test_eps_series(self, with_D):
        rep = qrep22()
        for m in (1, 2):
            sring = SeriesRing("eps", qside.Qu, m)
            fast = qside.mcal_collapsed(rep, m, with_D)
            ref = tower_reference.mcal_collapsed(rep, m, with_D)
            pref = (Q - Qqu.one) ** m
            for k, t in fast.coeffs.items():
                inv = qside.eps_expand(qside.cleared_factor(rep, k), m).invert()
                got = t.map_entries(lambda f: qside.eps_expand(f, m) * inv, ring=sring)
                want = ref.coeffs[k].map_entries(
                    lambda f: tower_reference.eps_expand(f * pref, m), ring=sring
                )
                assert not got.is_zero() and got == want


class TestOracleTask:
    def test_wrong_collapse_fails_with_degree_witness(self, monkeypatch):
        # negative control: the collapse replaced by the twisted product
        collapsed = qside.mcal_collapsed

        def twisted(rep, m, with_D=False):
            return collapsed(rep, m, True)

        monkeypatch.setattr(qside, "mcal_collapsed", twisted)
        args = {"N": 2, "points": ["1", "3"], "m": 1, "with_D": False}
        (rec,) = suites.run_tasks([("oracle", "claim", "task_mcal_oracle", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and set(rec["witness"]) <= {"0", "1"}
        for entries in rec["witness"].values():
            assert entries and all(isinstance(v, str) for _, _, v in entries)

    @pytest.mark.parametrize("with_D", [False, True])
    def test_oracle_m3(self, with_D):
        assert suites.task_mcal_oracle(2, ["1", "3"], 3, with_D) == (True, None)


class TestEpsExpansion:
    def test_eps_expand_simple(self):
        # q/(q+1) around q=1: 1/2 + eps/4 - ...
        q = qside.QU.gens[0]
        s = qside.eps_expand(q, 2) / qside.eps_expand(q + qside.QU.one, 2)
        assert s.coefficient(0).constant_value() == rational(1, 2)
        assert s.coefficient(1).constant_value() == rational(1, 4)

    def test_eps_expand_with_u(self):
        # (q u)/(1 - u) has eps-coefficients u/(1-u) at orders 0 and 1
        q, u = qside.QU.gens
        s = qside.eps_expand(q * u, 1) / qside.eps_expand(qside.QU.one - u, 1)
        target = FracField("u", QQ)
        base = target.gen / (target.one - target.gen)
        assert s.coefficient(0) == base
        assert s.coefficient(1) == base

    def test_negative_powers(self):
        # q^-2 u^-1 = u^-1 (1 + eps)^-2 = u^-1 (1 - 2 eps + 3 eps^2 - 4 eps^3)
        q, u = qside.QU.gens
        s = qside.eps_expand(q ** -2 * u ** -1, 3)
        target = FracField("u", QQ)
        inv_u = target.one / target.gen
        assert s == TruncSeries(
            "eps", target, 3, [inv_u.scale(QQ.from_int(c)) for c in (1, -2, 3, -4)]
        )

    def test_shift_operator_on_powers(self):
        # delta u^p = u^p q^{-2p} delta: the derivative expansion of
        # delta^k applied to u^p must match the eps-series of q^{-2kp}
        target = FracField("u", QQ)
        u = target.gen
        order = 3
        for k in (1, 2):
            terms = qside.delta_power_in_derivatives(k, order, target)
            for p in (1, 2, 3):
                up = u ** p
                # sum_i c_i d^i u^p as an eps-series of rational functions
                acc = None
                for i, series in terms.items():
                    d = up
                    for _ in range(i):
                        d = d.derivative()
                    contrib = series.scale(d)
                    acc = contrib if acc is None else acc + contrib
                # expected: u^p (1+eps)^{-2kp}
                binom = [QQ.one]
                for t in range(1, order + 1):
                    binom.append(
                        binom[-1]
                        * QQ.from_int(-2 * k * p - t + 1)
                        / QQ.from_int(t)
                    )
                expect = TruncSeries(
                    "eps", target, order, [up.scale(c) for c in binom]
                )
                assert acc == expect

    def test_stirling_values(self):
        assert qside.stirling2(4, 2) == 7
        assert qside.stirling2(5, 3) == 25
        assert qside.stirling2(3, 0) == 0


class TestClassicalLimit:
    def test_m1_both_routes(self):
        rep = qrep22()
        for route in ("collapsed", "recursion"):
            assert qside.classical_limit_compare(rep, 1, route=route)["pass"]

    def test_m2(self):
        rep = qrep22()
        assert qside.classical_limit_compare(rep, 2)["pass"]
        assert qside.classical_limit_compare(rep, 2, with_D=True)["pass"]

    def test_m4_twisted(self):
        assert suites.task_qlimit(2, ["1", "3"], 4, True) == (True, None)

    def test_twisted_product_fails_with_witness(self, monkeypatch):
        # negative control: the collapse replaced by the twisted product;
        # m = 2 because at m = 1 the twist does not show at eps^1
        collapsed = qside.mcal_collapsed

        def twisted(rep, m, with_D=False):
            return collapsed(rep, m, True)

        monkeypatch.setattr(qside, "mcal_collapsed", twisted)
        args = {"N": 2, "points": ["1", "3"], "m": 2, "with_D": False}
        (rec,) = suites.run_tasks([("qlimit", "claim", "task_qlimit", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and all(w["diff"] for w in rec["witness"])

    def test_bad_route_rejected(self):
        with pytest.raises(ValueError):
            qside.classical_limit_compare(qrep22(), 1, route="fast")


class TestNormalizedRMatrix:
    def test_central_term_small(self):
        assert qside.prop_central_term_check(2, 1, 4)
        assert qside.prop_central_term_check(2, -2, 4)

    def test_f_series_first_order(self):
        for N in (2, 3, 4, 5):
            assert qside.f_series_first_order_check(N, 4)
