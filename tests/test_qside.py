"""q-side layer: exchange relation, fused elements, classical limits."""

import hashlib
import inspect

import pytest

from triggaudin.gaudin import ThetaContext
from triggaudin.rationals import QQ, rational
from triggaudin.ratfun import FracField
from triggaudin.reports import report_bytes
from triggaudin.rmatrices import diag_shift_d, r_quantum_scaled
from triggaudin.series import SeriesRing, TruncSeries, TruncationError
from triggaudin import qside, rmatrices, suites, weyl

import full_space_q_routes
import tower_reference
from test_polering import to_ratfun
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
    @pytest.mark.parametrize("m", [0, -1])
    def test_order_below_one_is_refused(self, m):
        for build in (qside.mcal, qside.mcal_collapsed):
            with pytest.raises(ValueError, match="m must be >= 1"):
                build(qrep22(), m)

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


# (N, m): two sites, every product up to m
FULL_SPACE_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]


class TestAgainstFullSpace:
    """The traced-as-they-go products against the full-space references."""

    @staticmethod
    def rep(N):
        return qside.QRep(N, [rational(1, 2), rational(3)])

    @pytest.mark.parametrize("with_D", [False, True])
    @pytest.mark.parametrize("N, m", FULL_SPACE_CASES)
    def test_mcal(self, N, m, with_D):
        rep = self.rep(N)
        assert qside.mcal(rep, m, with_D) == full_space_q_routes.mcal(rep, m, with_D)

    @pytest.mark.parametrize("with_D", [False, True])
    @pytest.mark.parametrize("N, m", FULL_SPACE_CASES)
    def test_bethe(self, N, m, with_D):
        rep = self.rep(N)
        kinds = [("newton", m)] + ([("antisym", m)] if m <= N else [])
        for kind, k in kinds:
            got = qside.bethe(rep, kind, k, with_D)
            assert got == full_space_q_routes.bethe(rep, kind, k, with_D)

    def test_bethe_bivariate(self):
        # the ring and argument of the fused commutator checks
        rep = self.rep(2)
        v = qside.QUV.gens[2]
        for spec in (("antisym", 2, True), ("newton", 2, False)):
            got = qside.bethe(rep, *spec, ring=qside.QUV, u=v)
            assert got == full_space_q_routes.bethe(rep, *spec, ring=qside.QUV, u=v)

    def test_twist_changes_the_product(self):
        # negative control: the comparison above tells the twists apart
        rep = self.rep(2)
        assert qside.mcal(rep, 2, True) != full_space_q_routes.mcal(rep, 2, False)
        assert qside.bethe(rep, "newton", 2, True) != full_space_q_routes.bethe(
            rep, "newton", 2, False
        )


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
    def test_step_without_its_x_term_fails(self, with_D, monkeypatch):
        # negative control: X_(a+1) = -tr_a(P^q (X_a M_a)), the step of
        # mcal without the X_a that tr_a(P X_a) leaves, on a chain of its own
        source = inspect.getsource(qside.mcal)
        assert source.count("xs.append(X - step)") == 1
        namespace = dict(vars(qside), _mcal_chain=qside._mcal_chain.__wrapped__)
        exec(source.replace("xs.append(X - step)", "xs.append(-step)"), namespace)
        monkeypatch.setattr(qside, "mcal", namespace["mcal"])
        for m, status in ((1, "pass"), (2, "fail")):
            args = {"N": 2, "points": ["1", "3"], "m": m, "with_D": with_D}
            task = ("oracle", "claim", "task_mcal_oracle", args)
            (rec,) = suites.run_tasks([task])
            assert rec["status"] == status

    @pytest.mark.parametrize("with_D", [False, True])
    def test_step_with_p_q_at_q_inverse_fails(self, with_D, monkeypatch):
        # negative control: mcal's P^q built at 1/q, its weights transposed;
        # only mcal sees it, the Newton chain of the oracle keeps P^q
        real = rmatrices.q_permutation

        def inverted(N, ring, q):
            return real(N, ring, ring.one / q)

        namespace = dict(
            vars(qside),
            _mcal_chain=qside._mcal_chain.__wrapped__,
            q_permutation=inverted,
        )
        exec(inspect.getsource(qside.mcal), namespace)
        monkeypatch.setattr(qside, "mcal", namespace["mcal"])
        for m, ok in ((1, True), (2, False), (3, False)):
            assert suites.task_mcal_oracle(2, ["1", "3"], m, with_D)[0] is ok

    @pytest.mark.parametrize("with_D", [False, True])
    def test_oracle_m3(self, with_D):
        assert suites.task_mcal_oracle(2, ["1", "3"], 3, with_D) == (True, None)

    @pytest.mark.parametrize("with_D", [False, True])
    def test_oracle_and_limit_m5(self, with_D):
        # the raised cap: both q-side tasks at m = 5
        assert suites.task_mcal_oracle(2, ["1", "3"], 5, with_D) == (True, None)
        assert suites.task_qlimit(2, ["1", "3"], 5, with_D) == (True, None)


class TestEpsExpansion:
    def test_eps_expand_simple(self):
        # q/(q+1) around q=1: 1/2 + eps/4 - ...
        q = qside.QU.gens[0]
        s = qside.eps_expand(q, 2) / qside.eps_expand(q + qside.QU.one, 2)
        target = FracField("u", QQ)
        assert s.coefficient(0) == target.embed(rational(1, 2))
        assert s.coefficient(1) == target.embed(rational(1, 4))

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
        # delta^k f(u) = f(u q^{-2k}): the derivative expansion of delta^k
        # applied to f must match f composed with the eps-series of
        # u (1+eps)^{-2k}.  The powers u^p, p <= order, see only d^i with
        # i <= p; the pole 1/(u - 2) sees every i <= order
        target = FracField("u", QQ)
        u = target.gen
        order = 3
        E = SeriesRing("eps", target, order)
        for k in (1, 2):
            terms = qside.delta_power_in_derivatives(k, order)
            binom = [QQ.one]
            for t in range(1, order + 1):
                binom.append(binom[-1] * QQ.from_int(-2 * k - t + 1) / QQ.from_int(t))
            shifted_u = TruncSeries("eps", target, order, [u.scale(c) for c in binom])
            cases = [(u ** p, shifted_u ** p) for p in (1, 2, 3)]
            pole = target.one / (u - target.from_int(2))
            cases.append((pole, (shifted_u - E.from_int(2)).invert()))
            for f, expect in cases:
                # sum_i c_i d^i f as an eps-series of rational functions
                acc = None
                for i, series in terms.items():
                    d = f
                    for _ in range(i):
                        d = d.derivative()
                    contrib = series.scale(d)
                    acc = contrib if acc is None else acc + contrib
                assert acc == expect


class TestClassicalLimit:
    def test_m1(self):
        assert qside.classical_limit_compare(qrep22(), 1)["pass"]

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


def reference_lhs(rep, m, with_D=False):
    """The eps^m coefficients of the traced product from full eps-series
    over :data:`qside.Qu`: every entry times the inverse series of the
    cleared factor, then one series product per derivative order."""
    T = qside.mcal_collapsed(rep, m, with_D)
    sring = SeriesRing("eps", qside.Qu, m)
    lhs = {}
    for k in sorted(T.coeffs):
        inv = qside.eps_expand(qside.cleared_factor(rep, k), m).invert()
        tensor = T.coeffs[k].map_entries(
            lambda f: qside.eps_expand(f, m) * inv, ring=sring
        )
        for i, coeff in qside.delta_power_in_derivatives(k, m).items():
            contrib = tensor.map_entries(lambda s: s * coeff)
            lhs[i] = lhs[i] + contrib if i in lhs else contrib
    out = {
        i: t.map_entries(lambda s: s.coefficient(m), ring=qside.Qu)
        for i, t in lhs.items()
    }
    return {i: t for i, t in out.items() if not t.is_zero()}


def reference_current(rep):
    """The eps^1 coefficient of L+(u) over :data:`qside.Qu`."""
    inv = qside.eps_expand(qside.cleared_factor(rep, 1), 1).invert()
    return qside.qrep_current(rep).map_entries(
        lambda f: (qside.eps_expand(f, 1) * inv).coefficient(1), ring=qside.Qu
    )


def same_tensor(t, ref):
    """A pole-ring tensor equals a tensor over qside.Qu, entry by entry
    and in rendering."""
    assert sorted(t.entries) == sorted(ref.entries)
    for key, v in t.entries.items():
        assert to_ratfun(v) == ref.entries[key]
        assert repr(v) == repr(ref.entries[key])


# (N, points, m_max): two sites at two point sets, and three sites
LIMIT_CASES = [
    (2, ("1", "3"), 4),
    (3, ("1", "3"), 3),
    (2, ("1/2", "-3"), 4),
    (3, ("1/2", "-3"), 3),
    (2, ("1", "3", "-2"), 4),
]


def rep_of(N, points):
    return qside.QRep(N, [rational(p) for p in points])


class TestClassicalLimitAgainstReference:
    """Both sides of the classical limit against the eps-series over
    :data:`qside.Qu` and the recursion over that field."""

    @pytest.mark.parametrize("N, points, m_max", LIMIT_CASES)
    def test_current(self, N, points, m_max):
        rep = rep_of(N, points)
        same_tensor(qside.classical_limit_current(rep), reference_current(rep))

    @pytest.mark.parametrize("with_D", [False, True])
    @pytest.mark.parametrize("N, points, m_max", LIMIT_CASES)
    def test_lhs_and_rhs(self, N, points, m_max, with_D):
        rep = rep_of(N, points)
        ref = ThetaContext(reference_current(rep))
        for m in range(1, m_max + 1):
            lhs = qside.classical_limit_lhs(rep, m, with_D)
            want = reference_lhs(rep, m, with_D)
            assert sorted(lhs) == sorted(want)
            for i, t in lhs.items():
                same_tensor(t, want[i])
            rhs = qside.classical_limit_rhs(rep, m, with_D)
            want = ref.theta_mbar(m, with_D)
            assert sorted(rhs.coeffs) == sorted(want.coeffs)
            for i, t in rhs.coeffs.items():
                same_tensor(t, want.coeffs[i])


class TestClassicalLimitNegativeControl:
    rep = rep_of(2, ("1", "3"))

    def test_rhs_of_the_other_twist_fails(self, monkeypatch):
        # m = 2: at m = 1 the twist does not show at eps^1
        rhs = qside.classical_limit_rhs
        def other_twist(rep, m, with_D=False):
            return rhs(rep, m, not with_D)

        monkeypatch.setattr(qside, "classical_limit_rhs", other_twist)
        for with_D in (False, True):
            result = qside.classical_limit_compare(self.rep, 2, with_D)
            assert not result["pass"] and result["mismatches"]

    def test_rhs_at_moved_points_fails(self, monkeypatch):
        context = qside.classical_context
        monkeypatch.setattr(
            qside, "classical_context", lambda N, points: context(N, (points[0], 4))
        )
        for m in (1, 2):
            result = qside.classical_limit_compare(self.rep, m, True)
            assert not result["pass"] and result["mismatches"]

    def test_failing_record_keeps_its_bytes(self, monkeypatch):
        # the product at moved points against the classical side at the
        # given ones: a witness at three derivative orders, with fractions
        # in the points, rendered as the reduced rational functions
        collapsed = qside.mcal_collapsed

        def moved(rep, m, with_D=False):
            points = (rep.points[0], rep.points[1] + 1)
            return collapsed(qside.QRep(rep.N, points), m, with_D)

        monkeypatch.setattr(qside, "mcal_collapsed", moved)
        args = {"N": 2, "points": ["1/2", "-3"], "m": 2, "with_D": True}
        (rec,) = suites.run_tasks([("qlimit/match", "claim", "task_qlimit", args)])
        assert [w["degree"] for w in rec["witness"]] == [0, 1, 2]
        assert hashlib.sha256(report_bytes(rec)).hexdigest() == (
            "797d628d25104822485f2434c67295da3e0cb6a55e0ba60eeba29af58bb00a89"
        )


class TestKeptObjects:
    """Every kept object is keyed by all that it depends on."""

    rep = rep_of(2, ("1", "3"))
    other = rep_of(2, ("1", "4"))

    def test_currents(self):
        q, u, v = qside.QUV.gens
        kept = qside.qrep_current(self.rep, qside.QUV, q, u)
        assert qside.qrep_current(rep_of(2, ("1", "3")), qside.QUV, q, u) is kept
        others = [
            qside.qrep_current(self.other, qside.QUV, q, u),
            qside.qrep_current(self.rep, qside.QUV, q, v),
            qside.qrep_current(self.rep),
            qside.qrep_current(self.rep, qside.QUV, q, u, with_D=True),
        ]
        assert all(o is not kept for o in others)
        assert others[0] != kept and others[1] != kept and others[3] != kept

    def test_twisted_current_is_the_kept_current_times_d(self, monkeypatch):
        q, u, _ = qside.QUV.gens
        twisted = qside.qrep_current(self.rep, qside.QUV, q, u, with_D=True)
        assert qside.qrep_current(self.rep, qside.QUV, q, u, True) is twisted
        plain = qside.qrep_current(self.rep, qside.QUV, q, u)
        D = diag_shift_d(2, qside.QUV, q).place(plain.space, "z0")
        assert twisted == plain * D
        # a fresh twisted current is built from the kept untwisted one,
        # with no R-matrix built again
        qside._qrep_current.cache_clear()
        plain = qside.qrep_current(self.rep, qside.QUV, q, u)

        def refuse(*args):
            raise AssertionError("the R-matrix chain was built again")

        monkeypatch.setattr(qside, "r_quantum_scaled", refuse)
        assert qside.qrep_current(self.rep, qside.QUV, q, u, True) == plain * D

    def test_fused_elements(self):
        v = qside.QUV.gens[2]
        spec = ("newton", 2, False)
        kept = qside.bethe(self.rep, *spec, ring=qside.QUV)
        assert qside.bethe(self.rep, *spec, ring=qside.QUV) is kept
        others = [
            qside.bethe(self.other, *spec, ring=qside.QUV),
            qside.bethe(self.rep, "newton", 2, True, ring=qside.QUV),
            qside.bethe(self.rep, *spec, ring=qside.QUV, u=v),
        ]
        assert all(o is not kept and o != kept for o in others)

    @pytest.mark.parametrize("with_D", [False, True])
    def test_kept_fused_element_equals_a_fresh_build(self, with_D):
        q, u = qside.QU.gens
        key = (2, self.rep.points, with_D, qside.QU, q, u)
        fresh = {
            "antisym": qside._bethe.__wrapped__(*key[:2], 2, *key[2:]),
            "newton": qside.newton_chain.__wrapped__(*key).term(2),
        }
        for kind, element in fresh.items():
            kept = qside.bethe(self.rep, kind, 2, with_D)
            assert element is not kept and element == kept

    def test_classical_context(self):
        kept = qside.classical_context(2, self.rep.points)
        assert qside.classical_context(2, rep_of(2, ("1", "3")).points) is kept
        other = qside.classical_context(2, self.other.points)
        assert other is not kept
        assert other.theta_mbar(2) != kept.theta_mbar(2)
        assert kept.theta_mbar(2, True) != kept.theta_mbar(2)

    @pytest.mark.parametrize("order", [(1, 2, 3, 4), (4, 3, 2, 1)])
    def test_kept_mcal_chain_equals_a_fresh_build(self, order, monkeypatch):
        qside._mcal_chain.cache_clear()
        for with_D in (False, True):
            kept = {m: qside.mcal(self.rep, m, with_D) for m in order}
            assert len(qside._mcal_chain(2, self.rep.points, with_D)) == 4
            with monkeypatch.context() as patch:
                patch.setattr(qside, "_mcal_chain", qside._mcal_chain.__wrapped__)
                fresh = {m: qside.mcal(self.rep, m, with_D) for m in order}
            assert kept == fresh

    @pytest.mark.parametrize("with_D", [False, True])
    def test_mcal_step_is_one_product_without_the_plain_flip(
        self, with_D, monkeypatch
    ):
        # structural guard: tr_a(P X_a) = X_a, so extending the chain
        # builds no plain flip and multiplies by P^q once per step
        counts = {"permutation": 0, "premul": 0}

        def counting(name, f):
            def wrapped(*args):
                counts[name] += 1
                return f(*args)

            return wrapped

        for module in (rmatrices, qside):
            patched = counting("permutation", module.permutation)
            monkeypatch.setattr(module, "permutation", patched)
        premul = counting("premul", weyl.OperatorPolynomial.premul)
        monkeypatch.setattr(weyl.OperatorPolynomial, "premul", premul)
        qside._mcal_chain.cache_clear()
        qside.mcal(self.rep, 4, with_D)
        assert len(qside._mcal_chain(2, self.rep.points, with_D)) == 4
        assert counts == {"permutation": 0, "premul": 3}

    @pytest.mark.parametrize("with_D", [False, True])
    def test_mcal_step_sums_its_leg_inside_the_product(self, with_D, monkeypatch):
        # structural guard: each step is one traced product (product_trace),
        # so extending the chain to m = 4 multiplies by P^q three times and
        # forms only the closing product whole
        counts = {"mul": 0, "premul": 0}

        def counting(name, f):
            def wrapped(*args):
                counts[name] += 1
                return f(*args)

            return wrapped

        mul = counting("mul", weyl.QDiffOp.__mul__)
        monkeypatch.setattr(weyl.QDiffOp, "__mul__", mul)
        premul = counting("premul", weyl.OperatorPolynomial.premul)
        monkeypatch.setattr(weyl.OperatorPolynomial, "premul", premul)
        qside._mcal_chain.cache_clear()
        qside.mcal(self.rep, 4, with_D)
        assert len(qside._mcal_chain(2, self.rep.points, with_D)) == 4
        assert counts == {"mul": 1, "premul": 3}

    def test_mcal_chains(self):
        qside.mcal(self.rep, 2)
        qside.mcal(self.rep, 2, True)
        qside.mcal(self.other, 2)
        kept = qside._mcal_chain(2, self.rep.points, False)
        assert qside._mcal_chain(2, rep_of(2, ("1", "3")).points, False) is kept
        others = [
            qside._mcal_chain(2, self.rep.points, True),
            qside._mcal_chain(2, self.other.points, False),
        ]
        assert all(o is not kept and o[1] != kept[1] for o in others)

    def test_uncleared_series(self):
        kept = qside._uncleared(2, self.rep.points, 2, 3)
        assert qside._uncleared(2, self.rep.points, 2, 3) is kept
        assert kept != qside._uncleared(2, self.other.points, 2, 3)
        assert kept != qside._uncleared(2, self.rep.points, 1, 3)


class TestNormalizedRMatrix:
    def test_central_term_small(self):
        assert qside.prop_central_term_check(2, 1, 4)
        assert qside.prop_central_term_check(2, -2, 4)

    def test_wrong_closed_form_fails(self, monkeypatch):
        # negative control: 4(c+1)k in place of 4ck
        right = qside.central_term
        monkeypatch.setattr(
            qside, "central_term", lambda N, c, k: right(N, c + 1, k)
        )
        assert qside.prop_central_term_check(2, 1, 4) is False
        assert qside.prop_central_term_check(3, -3, 4) is False

    def test_constant_normalizer_fails(self, monkeypatch):
        # negative control: f replaced by the constant series 1
        monkeypatch.setattr(
            qside,
            "f_series",
            lambda N, ring, q, order: TruncSeries.one("x", ring, order),
        )
        assert qside.prop_central_term_check(2, 1, 4) is False
        assert qside.prop_central_term_check(3, 1, 4) is False

    def test_one_eps_order_short_does_not_pass(self, monkeypatch):
        # precision guard: at eps order x_order + 1 the x^x_order
        # coefficient of Rbar is known only to eps^1, and nothing of it
        # is left to read once divided by eps^2, so reading it raises
        monkeypatch.setattr(qside, "_eps_order", lambda x_order: x_order + 1)
        for N, c in ((2, 1), (3, -3)):
            with pytest.raises(TruncationError):
                qside.prop_central_term_check(N, c, 4)

    def test_f_series_first_order(self):
        for N in (2, 3, 4, 5):
            assert qside.f_series_first_order_check(N, 4)
