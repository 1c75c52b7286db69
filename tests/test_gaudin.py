"""Representation-side operator families: routes, residues, commutators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triggaudin.kernels import sparse_matmul_trace
from triggaudin.rationals import QQ, rational
from triggaudin.rmatrices import r_classical, tc
from triggaudin.tensor import AuxTensor, aux_space, single_leg_matrix
from triggaudin.weyl import DiffOp
from triggaudin import gaudin, suites
from triggaudin import tensor as tensor_module

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
        F = gaudin.Qu
        u = F.gen
        for (_, _), f in tr.sorted_entries():
            poly, parts = f.partial_fractions([rational(1), rational(3)])
            # rebuild f from its partial fractions
            acc, power = F.zero, F.one
            for c in poly:
                acc = acc + power.scale(c)
                power = power * u
            for a, cs in parts.items():
                inv = F.one / (u - F.embed(a))
                power = F.one
                for c in cs:
                    power = power * inv
                    acc = acc + power.scale(c)
            assert acc == f

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
            rep.space(), F, F.from_int(2 * rep.N) * F.gen
        )
        assert top == expect

    @pytest.mark.parametrize("N, m", [(3, 5), (4, 4)])
    def test_equivalence_large(self, N, m):
        rep = gaudin.GaudinRep(N, [rational(1), rational(3)])
        assert gaudin.theta_generating(rep, m) == gaudin.theta_mbar(rep, m)


class TestChainReuse:
    """One context keeps the theta_mbar chain per shift: any order of m,
    shifted and unshifted interleaved, gives what fresh contexts give."""

    ORDER = [(3, False), (2, True), (1, False), (3, True), (2, False), (1, True)]

    @pytest.mark.parametrize("N", [2, 3])
    def test_any_order_matches_fresh_contexts(self, N):
        rep = gaudin.GaudinRep(N, [rational(1, 2), rational(3)])
        ctx = gaudin.rep_context(rep)
        for m, shifted in self.ORDER:
            assert ctx.theta_mbar(m, shifted) == gaudin.theta_mbar(rep, m, shifted)
        # negative control: the two shifts give different operators, so
        # a chain shared between them could not pass the loop above
        assert ctx.theta_mbar(2, True) != ctx.theta_mbar(2, False)


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

    @pytest.mark.parametrize("shifted", [False, True])
    def test_one_auxiliary_leg_at_most(self, shifted, monkeypatch):
        # structural guard: with every coupling traced as a weighted flip,
        # no step embeds a tensor into more than (one aux leg, sites)
        dims = []
        embed = AuxTensor.embed

        def recording_embed(self, target, assignment):
            dims.append(target.dim)
            return embed(self, target, assignment)

        monkeypatch.setattr(AuxTensor, "embed", recording_embed)
        rep = gaudin.GaudinRep(3, [rational(1, 2), rational(3)])
        ctx = gaudin.rep_context(rep)
        assert ctx.theta_mbar(4, shifted) == ctx.theta_generating(4, shifted)
        assert max(dims) == 3 ** (1 + rep.l)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_highest_order_forms_m_minus_1_products(self, m, monkeypatch):
        # structural guard: theta_m forms X_a L whole only for a < m and
        # sums X_m L as it forms it; the family asks for m_max first, so
        # the lower orders are read off the chain it leaves.  Neither
        # route forms whole a product that it sums.
        products, traced = [], []
        mul, product_trace = DiffOp.__mul__, DiffOp.product_trace

        def counting_mul(self, other):
            products.append(self)
            return mul(self, other)

        def counting_trace(self, other, names):
            traced.append(self)
            return product_trace(self, other, names)

        monkeypatch.setattr(DiffOp, "__mul__", counting_mul)
        monkeypatch.setattr(DiffOp, "product_trace", counting_trace)
        rep = gaudin.GaudinRep(2, [rational(1), rational(3)])
        theta = gaudin.rep_context(rep).theta_mbar(m)
        assert (len(products), len(traced)) == (m - 1, 1)
        assert theta == full_space_routes.theta_mbar(gaudin.rep_context(rep), m, False)
        products.clear()
        traced.clear()
        gaudin.extract_family(rep, m)
        assert (len(products), len(traced)) == (m - 1, 1)
        products.clear()
        traced.clear()
        gaudin.rep_context(rep).theta_generating(m)
        assert traced and not {id(x) for x in traced} & {id(x) for x in products}

    def test_swapped_trace_tables_fail(self, monkeypatch):
        # negative control: the traced product handed the kept table as
        # the traced one.  Both routes end in that product, and their
        # operators agree before it, so comparing the routes cannot see
        # it; the full-space reference and the closed form do
        monkeypatch.setattr(
            tensor_module,
            "sparse_matmul_trace",
            lambda products, traced, kept: sparse_matmul_trace(products, kept, traced),
        )
        rep = gaudin.GaudinRep(2, [rational(1), rational(3)])
        ctx = gaudin.rep_context(rep)
        assert ctx.theta_mbar(3) != full_space_routes.theta_mbar(ctx, 3, False)
        want = full_space_routes.theta_generating(ctx, 3, False)
        assert ctx.theta_generating(3) != want
        args = {"N": 2, "points": ("1", "3"), "m": 3}
        (rec,) = suites.run_tasks([("explicit", "claim", "task_theta_explicit", args)])
        assert rec["status"] == "fail"

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
            qspace = rep.space()
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


entries_4x4 = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6)),
    max_size=8,
)


class TestIntegerCommutators:
    """Commutators on cleared integers against the commutator over Q."""

    SPACE = aux_space(2, 2)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(entries_4x4, entries_4x4)
    def test_matches_fraction_commutator(self, ea, eb):
        a, b = AuxTensor(self.SPACE, QQ, ea), AuxTensor(self.SPACE, QQ, eb)
        comm = gaudin.commutator_entries(gaudin.cleared(a), gaudin.cleared(b))
        assert comm == a.commutator(b).sorted_entries()

    def test_failing_pair_witness_is_exact(self):
        rep = gaudin.GaudinRep(2, [rational(1, 2), rational(3)])
        family = gaudin.extract_family(rep, 2)
        space = family[0].op.space
        diag = {(i, i): Fraction(i + 1, 3) for i in range(space.dim)}
        foreign = gaudin.FamilyMember(0, 0, ("poly", 0), AuxTensor(space, QQ, diag))
        report = gaudin.commutativity_report(family + [foreign])
        assert not report["pass"]
        failing = [p for p in report["pairs"] if not p["zero"]]
        assert failing
        by_label = {m.label(): m.op for m in family + [foreign]}
        for p in failing:
            a, b = (by_label[lbl] for lbl in p["pair"])
            assert p["witness"] == a.commutator(b).sorted_entries()
        # the witnesses carry non-integer values, so the division by
        # d_a d_b is exercised
        assert any(
            v.denominator != 1 for p in failing for _, v in p["witness"]
        )
        # the family alone commutes, with no witness
        assert gaudin.commutativity_report(family)["pass"]


def pairwise_report(family):
    """The report built pair by pair from :func:`gaudin.commutator_entries`."""
    ops = [gaudin.cleared(member.op) for member in family]
    records = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            comm = gaudin.commutator_entries(ops[i], ops[j])
            records.append(
                {
                    "pair": (family[i].label(), family[j].label()),
                    "zero": not comm,
                    "witness": comm or None,
                }
            )
    return {"pass": all(r["zero"] for r in records), "pairs": records}


def broken(family, index):
    """``family`` with 1/3 added to entry (0, 7) of member ``index``."""
    member = family[index]
    entries = dict(member.op.entries)
    entries[(0, 7)] = entries.get((0, 7), 0) + Fraction(1, 3)
    entries = {k: v for k, v in entries.items() if v}
    op = AuxTensor(member.op.space, QQ, entries)
    return (
        family[:index]
        + [gaudin.FamilyMember(member.m, member.k, member.location, op)]
        + family[index + 1 :]
    )


int_entries = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-(10**30), 10**30).filter(bool),
    max_size=8,
)
int_family = st.lists(st.tuples(int_entries, st.integers(1, 6)), max_size=6)

# members whose commutators are [A0, A1] = 4 e_01, [A0, A2] = -e_01 and
# [A1, A2] = -e_01; commutator_width gives 4 bits for them
ALIAS_FAMILY = [
    ({(0, 0): 1, (0, 1): 1, (1, 1): -1}, 1),
    ({(0, 0): -1, (0, 1): 1, (1, 1): 1}, 1),
    ({(0, 0): 1}, 1),
]


class TestPackedCommutators:
    """Two packed products per member against the pairwise commutators."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(int_family, st.integers(0, 7))
    def test_matches_pairwise_entries(self, ops, rows):
        expected = [
            (i, j, gaudin.commutator_entries(ops[i], ops[j]))
            for i in range(len(ops))
            for j in range(i + 1, len(ops))
        ]
        assert list(gaudin.packed_commutators(ops)) == expected
        assert list(gaudin.packed_commutators(ops, rows=rows)) == [
            t for t in expected if t[0] < rows
        ]

    def test_empty_and_single_member(self):
        assert list(gaudin.packed_commutators([])) == []
        assert list(gaudin.packed_commutators([({(0, 1): 5}, 2)])) == []
        zero = ({}, 1)
        assert list(gaudin.packed_commutators([zero, zero, ({(1, 0): -3}, 1)])) == [
            (0, 1, []),
            (0, 2, []),
            (1, 2, []),
        ]

    @pytest.mark.parametrize(
        "N, points, m_max, shifted",
        [
            (3, ("1/2", "3"), 3, False),
            (3, ("1/2", "3"), 3, True),
            (3, ("1", "3"), 5, False),
            (4, ("1", "3"), 4, True),
        ],
    )
    def test_broken_member_records_match_pairwise(self, N, points, m_max, shifted):
        rep = gaudin.GaudinRep(N, [rational(p) for p in points])
        family = gaudin.extract_family(rep, m_max, shifted)
        assert gaudin.commutativity_report(family) == pairwise_report(family)
        bad = broken(family, 5)
        report = gaudin.commutativity_report(bad)
        assert report == pairwise_report(bad)
        assert not report["pass"]

    def test_two_products_per_member(self, monkeypatch):
        calls = []
        matmul = gaudin.sparse_matmul

        def counted(a, b):
            calls.append(1)
            return matmul(a, b)

        family = broken(gaudin.extract_family(rep22(), 3), 5)
        monkeypatch.setattr(gaudin, "sparse_matmul", counted)
        report = gaudin.commutativity_report(family)
        assert len(calls) == 2 * (len(family) - 1)
        monkeypatch.undo()
        assert report == pairwise_report(family)

    def test_width_bound_is_needed(self, monkeypatch):
        # negative control: one bit below the bound, the carry out of
        # [A0, A1] = 4 e_01 cancels [A0, A2] = -e_01, so a pair that does
        # not commute reads as commuting
        honest = list(gaudin.packed_commutators(ALIAS_FAMILY))
        assert honest[1] == (0, 2, [((0, 1), Fraction(-1))])
        width = gaudin.commutator_width
        assert width(ALIAS_FAMILY) == 4
        monkeypatch.setattr(gaudin, "commutator_width", lambda ops: width(ops) - 1)
        short = list(gaudin.packed_commutators(ALIAS_FAMILY))
        assert short[1] == (0, 2, [])
        # at width 2 the entries 2^2 and -1 of consecutive pairs pack to 0
        monkeypatch.setattr(gaudin, "commutator_width", lambda ops: 2)
        packed = list(gaudin.packed_commutators(ALIAS_FAMILY))
        assert packed[:2] == [(0, 1, []), (0, 2, [])]

    def test_carry_past_last_digit_raises(self, monkeypatch):
        # one pair whose entry 4 needs more than a 3-bit balanced digit
        pair = ALIAS_FAMILY[:2]
        assert list(gaudin.packed_commutators(pair)) == [
            (0, 1, [((0, 1), Fraction(4))])
        ]
        monkeypatch.setattr(gaudin, "commutator_width", lambda ops: 3)
        with pytest.raises(ArithmeticError):
            list(gaudin.packed_commutators(pair))


def closing_reference(N, points, m_max):
    """``suites.task_closing_series`` built pair by pair."""
    rep = gaudin.GaudinRep(N, [rational(p) for p in points])
    closing = gaudin.closing_series(rep)
    ops = [
        (loc, gaudin.cleared(op))
        for loc, op in gaudin.partial_fraction_data(closing, list(rep.points))
    ]
    family = [
        (member.label(), gaudin.cleared(member.op))
        for member in gaudin.extract_family(rep, m_max)
    ]
    bad = []
    for loc, op in ops:
        for label, member in family:
            if gaudin.commutator_entries(op, member):
                bad.append({"closing": list(map(str, loc)), "member": label})
    for x, (la, a) in enumerate(ops):
        for lb, b in ops[x + 1 :]:
            if gaudin.commutator_entries(a, b):
                bad.append({"pair": [list(map(str, la)), list(map(str, lb))]})
    return not bad, bad or None


class TestClosingSeries:
    def test_passes(self):
        assert suites.task_closing_series(2, ("1", "3"), 2) == (True, None)

    def test_failures_keep_their_order(self, monkeypatch):
        # every partial-fraction split, the closing series' and the
        # family's, gains two operators that commute with neither
        split = gaudin.partial_fraction_data

        def with_foreign(tensor, poles):
            space = tensor.space
            diag = {(i, i): Fraction(i + 1, 3) for i in range(space.dim)}
            flip = {(0, 1): Fraction(1), (1, 0): Fraction(-2, 5)}
            return split(tensor, poles) + [
                (("poly", 98), AuxTensor(space, QQ, diag)),
                (("poly", 99), AuxTensor(space, QQ, flip)),
            ]

        monkeypatch.setattr(gaudin, "partial_fraction_data", with_foreign)
        ok, bad = suites.task_closing_series(2, ("1", "3"), 2)
        assert not ok
        assert (ok, bad) == closing_reference(2, ("1", "3"), 2)
        assert any("pair" in b for b in bad) and any("member" in b for b in bad)
