"""Representation-side operator families: routes, residues, commutators."""

import pytest

from triggaudin.rationals import QQ, rational
from triggaudin import gaudin


def rep22():
    return gaudin.GaudinRep(2, [rational(1), rational(3)])


class TestRepValidation:
    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            gaudin.GaudinRep(2, [rational(0), rational(1)])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            gaudin.GaudinRep(2, [rational(2), rational(2)])


class TestCurrent:
    def test_entry_poles_at_sites(self):
        rep = rep22()
        L = gaudin.represent_current(rep)
        tr = L.partial_trace(["z0"])
        for (_, _), f in tr.sorted_entries():
            poly, parts = f.partial_fractions([rational(1), rational(3)])
            assert f.recombine_check(poly, parts)

    def test_scalar_site_case(self):
        # N = 1: the current is the scalar series sum_i g(u/a_i)
        rep = gaudin.GaudinRep(1, [rational(2)])
        L = gaudin.represent_current(rep)
        F = gaudin.Qu
        u = F.gen
        a = F.embed(rational(2))
        expect = (a + u) / (a - u)
        assert L.entries[(0, 0)] == expect


class TestRoutes:
    def test_equivalence_small(self):
        rep = rep22()
        for m in (1, 2, 3):
            assert gaudin.theta_generating(rep, m) == gaudin.theta_mbar(rep, m)

    def test_equivalence_shifted(self):
        rep = rep22()
        for m in (1, 2):
            a = gaudin.theta_generating(rep, m, shifted=True)
            b = gaudin.theta_mbar(rep, m, shifted=True)
            assert a == b

    def test_explicit_oracles(self):
        rep = rep22()
        for m in (1, 2, 3):
            assert gaudin.theta_generating(rep, m) == gaudin.explicit_theta(rep, m)

    def test_shift_changes_operator(self):
        rep = rep22()
        assert gaudin.theta_mbar(rep, 2) != gaudin.theta_mbar(rep, 2, shifted=True)

    def test_leading_coefficient(self):
        # the top derivative coefficient of the m-th operator is
        # (2u)^m N^m-free structure: for m=1 it is 2Nu times identity
        rep = rep22()
        theta = gaudin.theta_mbar(rep, 1)
        F = gaudin.Qu
        from triggaudin.tensor import AuxTensor

        top = theta.coefficient(1)
        expect = AuxTensor.scalar(
            rep.quantum_space(), F, F.from_int(2 * rep.N) * F.gen
        )
        assert top == expect


class TestQuadraticResidues:
    def test_2_2(self):
        assert gaudin.quad_residue_check(rep22())["pass"]

    def test_3_2(self):
        rep = gaudin.GaudinRep(3, [rational(1), rational(3)])
        assert gaudin.quad_residue_check(rep)["pass"]

    def test_rational_points(self):
        rep = gaudin.GaudinRep(2, [rational(1, 2), rational(5, 3)])
        assert gaudin.quad_residue_check(rep)["pass"]


class TestFamily:
    def test_members_commute(self):
        rep = rep22()
        fam = gaudin.extract_family(rep, 2)
        report = gaudin.commutativity_report(fam)
        assert report["pass"]
        assert all(p["zero"] for p in report["pairs"])

    def test_family_m1_is_central_data(self):
        # the m=1 members commute with everything in the m<=3 family
        rep = rep22()
        fam = gaudin.extract_family(rep, 3)
        ones = [f for f in fam if f.m == 1]
        assert ones
        for a in ones:
            for b in fam:
                assert a.op.commutator(b.op).is_zero()

    def test_labels_deterministic(self):
        rep = rep22()
        labels = [f.label() for f in gaudin.extract_family(rep, 2)]
        assert labels == [f.label() for f in gaudin.extract_family(rep, 2)]

    def test_closing_series_compatible(self):
        rep = rep22()
        ops = gaudin.partial_fraction_data(
            gaudin.closing_series(rep), list(rep.points)
        )
        fam = gaudin.extract_family(rep, 2)
        for _, op in ops:
            for member in fam:
                assert op.commutator(member.op).is_zero()

    def test_scalar_case(self):
        # N = 1: all operators are scalars, trivially commuting
        rep = gaudin.GaudinRep(1, [rational(1), rational(2)])
        fam = gaudin.extract_family(rep, 2)
        assert gaudin.commutativity_report(fam)["pass"]
