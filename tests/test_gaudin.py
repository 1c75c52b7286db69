"""Representation-side operator families: routes, residues, commutators."""

import pytest

from triggaudin.rationals import QQ, rational
from triggaudin.rmatrices import r_classical, tc
from triggaudin.tensor import AuxTensor, single_leg_matrix
from triggaudin import gaudin, suites

import full_space_routes


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

    @staticmethod
    def _from_entries(L, entry):
        """sum_ij e_ij (on z0) (x) entry(i, j) (on the sites)."""
        sites = L.space.leg_names()[1:]
        one = L.ring.one
        out = AuxTensor.zero(L.space, L.ring)
        for i in range(1, L.space.N + 1):
            for j in range(1, L.space.N + 1):
                e_ij = single_leg_matrix(
                    L.space.N, L.ring, lambda a, b: one if (a, b) == (i, j) else None
                )
                term = e_ij.place(L.space, "z0") * entry(i, j).place(L.space, *sites)
                out = out + term
        return out

    def test_entries_rebuild_the_current(self):
        rep = gaudin.GaudinRep(3, [rational(1), rational(3)])
        L = gaudin.represent_current(rep)
        rebuilt = self._from_entries(L, lambda i, j: gaudin.current_entry(L, i, j))
        assert rebuilt == L
        # negative control: the transposed entries do not rebuild it
        swapped = self._from_entries(L, lambda i, j: gaudin.current_entry(L, j, i))
        assert swapped != L


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
        for m in (0, 4):
            with pytest.raises(ValueError):
                gaudin.explicit_theta(rep, m)

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

    @pytest.mark.parametrize("N, m", [(3, 5), (4, 4)])
    def test_equivalence_large(self, N, m):
        rep = gaudin.GaudinRep(N, [rational(1), rational(3)])
        assert gaudin.theta_generating(rep, m) == gaudin.theta_mbar(rep, m)


# (N, points, m): one and two sites, m <= 3, and m = 4 at N = 2
CONTRACTED_CASES = [
    pytest.param(N, points, m, id="N%d-l%d-m%d" % (N, len(points), m))
    for N in (2, 3)
    for points in ((2,), (1, 3))
    for m in (1, 2, 3, 4)
    if m <= 3 or N == 2
]


class TestContractedRoutes:
    """Trace-as-you-go routes against the full-space reference."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("N, points, m", CONTRACTED_CASES)
    def test_against_full_space(self, N, points, m, shifted):
        rep = gaudin.GaudinRep(N, [rational(a) for a in points])
        ctx = gaudin.rep_context(rep)
        mbar = ctx.theta_mbar(m, shifted)
        assert not mbar.is_zero()
        assert mbar == full_space_routes.theta_mbar(ctx, m, shifted)
        assert ctx.theta_generating(m, shifted) == full_space_routes.theta_generating(
            ctx, m, shifted
        )

    def test_wrong_tc_fails_with_witness(self, monkeypatch):
        # negative control: -Tc in the recursion only (the generating
        # route takes Tc from t_taylor); at m = 2 the Tc term traces to
        # zero, so m = 3 is the first order where the control can fail
        monkeypatch.setattr(gaudin, "tc", lambda N, ring: -tc(N, ring))
        args = {"N": 2, "points": ("1", "3"), "m": 3, "shifted": False}
        (rec,) = suites.run_tasks([("routes", "claim", "task_theta_routes", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and all(rec["witness"].values())


class TestQuadraticResidues:
    def test_2_2(self):
        assert gaudin.quad_residue_check(rep22())["pass"]

    def test_3_2(self):
        rep = gaudin.GaudinRep(3, [rational(1), rational(3)])
        assert gaudin.quad_residue_check(rep)["pass"]

    def test_rational_points(self):
        rep = gaudin.GaudinRep(2, [rational(1, 2), rational(5, 3)])
        assert gaudin.quad_residue_check(rep)["pass"]

    def test_inverted_argument_fails_with_witness(self, monkeypatch):
        # negative control: the right-hand side's r_ij taken at a_j/a_i;
        # the current, built over Q(u), keeps its true argument
        monkeypatch.setattr(
            gaudin,
            "r_classical",
            lambda N, ring, x: r_classical(N, ring, ring.one / x if ring is QQ else x),
        )
        args = {"N": 2, "points": ("1", "3")}
        (rec,) = suites.run_tasks([("quadham", "claim", "task_quadham", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and all(w["diff"] for w in rec["witness"])


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

    def test_distinct_diagonal_fails_with_witness(self, monkeypatch):
        # negative control: a member with distinct diagonal entries
        # commutes with no operator that is not diagonal
        extract = gaudin.extract_family

        def with_diagonal(rep, m_max, shifted=False):
            qspace = rep.quantum_space()
            diag = {(i, i): QQ.from_int(i + 1) for i in range(qspace.dim)}
            member = gaudin.FamilyMember(0, 0, ("poly", 0), AuxTensor(qspace, QQ, diag))
            return extract(rep, m_max, shifted) + [member]

        monkeypatch.setattr(gaudin, "extract_family", with_diagonal)
        args = {"N": 2, "points": ("1", "3"), "m_max": 2, "shifted": False}
        (rec,) = suites.run_tasks([("commut", "claim", "task_commutativity", args)])
        assert rec["status"] == "fail"
        assert rec["witness"] and all(w["diff"] for w in rec["witness"])

    def test_scalar_case(self):
        # N = 1: all operators are scalars, trivially commuting
        rep = gaudin.GaudinRep(1, [rational(1), rational(2)])
        fam = gaudin.extract_family(rep, 2)
        assert gaudin.commutativity_report(fam)["pass"]
