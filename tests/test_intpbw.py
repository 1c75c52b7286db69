"""The integer PBW layer: int coefficients, one normal-form cache per N,
and commutators of equal selections computed once per unordered pair.

The all-pairs loop that :func:`triggaudin.pbw.commute_check` replaced is
kept here as the reference; the records must agree pair by pair, and a
selection with a non-commuting element must fail through the pair-reuse
path with the witnesses a direct computation gives.
"""

from fractions import Fraction

import pytest

from triggaudin import pbw


def reference_commute_check(N, m1, m2, orders, shifted=False):
    """Every ordered pair computed on its own, as before the reuse."""
    u_order = max((d for (_, d) in orders), default=0)
    t1 = pbw.theta_symbolic(N, m1, u_order, shifted)
    t2 = pbw.theta_symbolic(N, m2, u_order, shifted)
    sel1 = [(kd, t1[kd]) for kd in sorted(orders) if kd in t1]
    sel2 = [(kd, t2[kd]) for kd in sorted(orders) if kd in t2]
    records = []
    ok = True
    for kd1, x in sel1:
        for kd2, y in sel2:
            comm = x.commutator(y)
            good = comm.is_zero()
            ok = ok and good
            records.append(
                {
                    "pair": ((m1,) + kd1, (m2,) + kd2),
                    "zero": good,
                    "witness": None if good else repr(comm),
                }
            )
    return {"pass": ok, "pairs": records}


def _orders(m2, d_max=3):
    return [(k, d) for k in range(m2 + 1) for d in range(d_max + 1)]


class TestCommuteCheck:
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("m1, m2", [(1, 1), (1, 2), (2, 2)])
    def test_records_match_all_pairs_reference(self, m1, m2, shifted):
        orders = _orders(m2)
        got = pbw.commute_check(2, m1, m2, orders, shifted)
        want = reference_commute_check(2, m1, m2, orders, shifted)
        assert got == want
        assert got["pass"] and len(got["pairs"]) > 1

    def test_reuse_path_fails_with_direct_witnesses(self, monkeypatch):
        # the same non-commuting mode generator joins both selections, so
        # they stay equal and the swapped pairs come from the reuse path
        theta = pbw.theta_symbolic
        extra = (9, 0)

        def with_generator(N, m, u_order, shifted=False):
            out = dict(theta(N, m, u_order, shifted))
            out[extra] = pbw.PBWAlg(N).generator(1, 2, 1)
            return out

        monkeypatch.setattr(pbw, "theta_symbolic", with_generator)
        calls = []
        commutator = pbw.PBWElement.commutator

        def counting(x, y):
            calls.append(1)
            return commutator(x, y)

        monkeypatch.setattr(pbw.PBWElement, "commutator", counting)
        orders = _orders(2, 2) + [extra]
        got = pbw.commute_check(2, 2, 2, orders)
        n = len([kd for kd in orders if kd in with_generator(2, 2, 2)])
        assert len(calls) == n * (n - 1) // 2  # each unordered pair once
        monkeypatch.setattr(pbw.PBWElement, "commutator", commutator)

        assert not got["pass"]
        assert got == reference_commute_check(2, 2, 2, orders)
        coeffs = with_generator(2, 2, 2)
        swapped = 0
        for rec in got["pairs"]:
            (_, *kd1), (_, *kd2) = rec["pair"]
            x, y = coeffs[tuple(kd1)], coeffs[tuple(kd2)]
            if rec["zero"] or tuple(kd1) <= tuple(kd2):
                continue
            swapped += 1
            # computed directly, not as the negated mirror pair
            assert rec["witness"] == repr(x * y - y * x)
        assert swapped


class TestIntegerCoefficients:
    @staticmethod
    def _count_fractions(monkeypatch):
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        return made

    def test_theta_and_commutators_build_no_fraction(self, monkeypatch):
        # a cold cache, so every normal form is computed under the count
        monkeypatch.setattr(pbw, "_NORMAL_FORMS", {})
        made = self._count_fractions(monkeypatch)
        thetas = [pbw.theta_symbolic(2, m, 3) for m in (1, 2, 3)]
        for shifted in (False, True):
            assert pbw.commute_check(2, 1, 2, _orders(2), shifted)["pass"]
            assert pbw.commute_check(2, 2, 2, _orders(2), shifted)["pass"]
        assert not made
        assert all(
            type(c) is int
            for coeffs in thetas
            for x in coeffs.values()
            for c in x.terms.values()
        )
        # the lower current meets the central term, whose -1/N is the one
        # Fraction source, so the count is not vacuous
        assert pbw.vacuum_invariance_check(2, 1, _orders(1, 1), 1)["pass"]
        assert made

    def test_central_term_is_the_only_fraction(self):
        alg = pbw.PBWAlg(2)
        # [E_11[1], E_11[-1]] = (1 - 1/2) K, [E_11[1], E_22[-1]] = -1/2 K
        half = alg.bracket(pbw.mode(1, 1, 1), pbw.mode(1, 1, -1))
        assert half.terms == {((), 1): Fraction(1, 2)}
        assert alg.bracket(pbw.mode(1, 1, 1), pbw.mode(2, 2, -1)).terms == {
            ((), 1): Fraction(-1, 2)
        }
        # r (1 - 1/N) = 1 at r = 2: an int again
        (c,) = alg.bracket(pbw.mode(1, 1, 2), pbw.mode(1, 1, -2)).terms.values()
        assert c == 1 and type(c) is int
        # [E_12[1], E_21[-1]] = E_11[0] - E_22[0] + K: no -1/N off the diagonal
        c = alg.bracket(pbw.mode(1, 2, 1), pbw.mode(2, 1, -1)).terms[((), 1)]
        assert c == 1 and type(c) is int

    def test_int_and_fraction_coefficients_agree(self):
        alg = pbw.PBWAlg(2)
        x = alg.generator(1, 2, -1, 3)
        y = alg.generator(1, 2, -1, Fraction(3))
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert repr(alg.one) == "1*1"
        assert alg.from_int(-2) == alg.central().vacuum_image(-2)


class TestSharedCache:
    def test_one_cache_per_n(self, monkeypatch):
        monkeypatch.setattr(pbw, "_NORMAL_FORMS", {})
        a, b, c = pbw.PBWAlg(2), pbw.PBWAlg(2), pbw.PBWAlg(3)
        assert a._no_cache is b._no_cache
        assert a._no_cache is not c._no_cache
        word = (pbw.mode(1, 2, 2), pbw.mode(2, 1, -1), pbw.mode(1, 1, -2))
        first = a.normal_order(word)
        # b reads a's normal form and brackets nothing; c computes its own
        calls = []
        bracket = pbw.PBWAlg.bracket

        def counting(self, x, y):
            calls.append((x, y))
            return bracket(self, x, y)

        monkeypatch.setattr(pbw.PBWAlg, "bracket", counting)
        assert b.normal_order(word).terms == first.terms and not calls
        assert word not in c._no_cache
        c.normal_order(word)
        assert calls
