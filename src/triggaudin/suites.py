"""Named verification suites with deterministic, parallelizable checks.

Each suite is a fixed ordered list of task descriptors; tasks are pure
module-level functions with plain-data arguments, so they can run in
worker processes while the assembled report stays byte-identical for
any worker count.  Every task returns (ok, witness) with a
JSON-serializable witness describing the failure; a task that raises
is recorded with status "error" instead of stopping the suite.
"""

import itertools
import random
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from . import gaudin, pbw, qside
from .rationals import QQ, parse_rational
from .reports import build_report, error_record, record, tensor_triplets
from .rmatrices import (
    permutation,
    r_classical,
    r_quantum_scaled,
    tc,
    tc_bar,
    tc_cycle_chain,
)
from .tensor import Space, aux_leg, aux_space

SUITE_NAMES = (
    "ybe",
    "trace-lemmas",
    "theta-routes",
    "commutativity",
    "quadham",
    "qside",
    "qlimit",
    "pbw-commut",
    "pbw-invariance",
    "all",
)

_SEED = 20260823


def _points(strings):
    return tuple(parse_rational(s) for s in strings)


def _rand_rational(rng, avoid):
    while True:
        x = QQ.from_int(rng.randint(-9, 9)) / QQ.from_int(rng.randint(1, 9))
        if x and x not in avoid:
            return x


def _repr_triplets(entries):
    """[[row, col, repr(value)], ...]: failure witnesses keep full values."""
    return [[r, c, repr(v)] for (r, c), v in entries]


def _same_operator(a, b):
    """(ok, witness) for a == b; the witness maps each degree of a - b to
    the entries of its coefficient."""
    diff = a - b
    if diff.is_zero():
        return True, None
    return False, {
        str(k): _repr_triplets(t.sorted_entries()) for k, t in diff.coeffs.items()
    }


# -- r-matrix axiom tasks ----------------------------------------------


def task_classical_ybe(N, count):
    """[r12(x), r13(xy)] + [r12(x), r23(y)] + [r13(xy), r23(y)] = 0."""
    rng = random.Random(_SEED + N)
    space = aux_space(N, 3)
    bad = []
    for t in range(count):
        x = _rand_rational(rng, (QQ.one,))
        y = _rand_rational(rng, (QQ.one,))
        if x * y == QQ.one:
            y = y + QQ.one
        r12 = r_classical(N, QQ, x).place(space, "a1", "a2")
        r13 = r_classical(N, QQ, x * y).place(space, "a1", "a3")
        r23 = r_classical(N, QQ, y).place(space, "a2", "a3")
        lhs = r12.commutator(r13) + r12.commutator(r23) + r13.commutator(r23)
        if not lhs.is_zero():
            bad.append({"x": str(x), "y": str(y), "diff": tensor_triplets(lhs)})
    return not bad, bad or None


def task_skew_symmetry(N, count):
    """r12(x) + r21(1/x) = 0 pointwise."""
    rng = random.Random(_SEED + 31 * N)
    space = aux_space(N, 2)
    bad = []
    for t in range(count):
        x = _rand_rational(rng, (QQ.one, -QQ.one))
        r12 = r_classical(N, QQ, x).place(space, "a1", "a2")
        r21 = r_classical(N, QQ, QQ.one / x).place(space, "a2", "a1")
        s = r12 + r21
        if not s.is_zero():
            bad.append({"x": str(x), "diff": tensor_triplets(s)})
    return not bad, bad or None


def task_quantum_ybe(N, count):
    """R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x) over Q(q).

    Uses the denominator-cleared R-matrix; both sides carry the same
    central scalar, so the identity is unchanged; it is checked in qside.QU.
    """
    rng = random.Random(_SEED + 7 * N)
    space = aux_space(N, 3)
    ring = qside.QU
    q = ring.gens[0]
    bad = []
    for t in range(count):
        x = _rand_rational(rng, ())
        y = _rand_rational(rng, ())
        xq, yq = (qside.embed_rational(ring, a) for a in (x, y))
        R12 = r_quantum_scaled(N, ring, q, xq).place(space, "a1", "a2")
        R13 = r_quantum_scaled(N, ring, q, xq * yq).place(space, "a1", "a3")
        R23 = r_quantum_scaled(N, ring, q, yq).place(space, "a2", "a3")
        diff = R12 * R13 * R23 - R23 * R13 * R12
        if not diff.is_zero():
            bad.append({"x": str(x), "y": str(y)})
    return not bad, bad or None


# -- trace lemma tasks -------------------------------------------------


def task_trace_cycle(N, k):
    """Tracing the middle legs of the skew-cycle chain leaves the
    two-leg skew tensor (k even) or the off-diagonal flip (k odd)."""
    space = Space(N, [aux_leg("t%d" % i) for i in range(1, k + 1)])
    chain = tc_cycle_chain(space, QQ, tuple(range(k, 0, -1)))
    traced = chain.partial_trace(["t%d" % i for i in range(2, k)])
    tgt = (tc_bar if k % 2 else tc)(N, QQ).place(traced.space, "t1", "t%d" % k)
    diff = traced - tgt
    return diff.is_zero(), tensor_triplets(diff) or None


def task_trace_one_leg(N):
    """tr_1 of the skew tensor and of the off-diagonal flip vanish."""
    for build in (tc, tc_bar):
        traced = build(N, QQ).partial_trace(["a1"])
        if not traced.is_zero():
            return False, tensor_triplets(traced)
    return True, None


def task_trace_mixed(N):
    """tr_2 T_{23} P_{12} = T_{13} for the skew tensor and the flip."""
    space = aux_space(N, 3)
    P12 = permutation(N, QQ).place(space, "a1", "a2")
    for build in (tc, tc_bar):
        t23 = build(N, QQ).place(space, "a2", "a3")
        lhs = (t23 * P12).partial_trace(["a2"])
        rhs = build(N, QQ).place(lhs.space, "a1", "a3")
        diff = lhs - rhs
        if not diff.is_zero():
            return False, tensor_triplets(diff)
    return True, None


def task_trpi(N, m):
    """Partial-trace collapse of mixed permutation chains, all subsets."""
    bad = []
    for r in range(0, m + 1):
        for subset in itertools.combinations(range(1, m + 1), r):
            if not qside.trace_identity_pi(m, subset, N):
                bad.append(list(subset))
    return not bad, bad or None


# -- representation-side tasks -----------------------------------------


def task_theta_routes(N, points, m, shifted):
    rep = gaudin.GaudinRep(N, _points(points))
    return _same_operator(
        gaudin.theta_generating(rep, m, shifted), gaudin.theta_mbar(rep, m, shifted)
    )


def task_theta_explicit(N, points, m):
    rep = gaudin.GaudinRep(N, _points(points))
    return _same_operator(
        gaudin.theta_generating(rep, m), gaudin.explicit_theta(rep, m)
    )


def task_commutativity(N, points, m_max, shifted):
    rep = gaudin.GaudinRep(N, _points(points))
    family = gaudin.extract_family(rep, m_max, shifted)
    result = gaudin.commutativity_report(family)
    if result["pass"]:
        return True, None
    bad = [
        {"pair": list(p["pair"]), "diff": tensor_triplets(p["witness"])}
        for p in result["pairs"]
        if not p["zero"]
    ]
    return False, bad


def task_closing_series(N, points, m_max):
    """Coefficients of the closing cubic series commute with the family."""
    rep = gaudin.GaudinRep(N, _points(points))
    closing = gaudin.closing_series(rep)
    ops = gaudin.partial_fraction_data(closing, list(rep.points))
    family = gaudin.extract_family(rep, m_max)
    bad = []
    for loc, op in ops:
        for member in family:
            comm = op.commutator(member.op)
            if not comm.is_zero():
                bad.append({"closing": list(map(str, loc)), "member": member.label()})
    for (la, a), (lb, b) in itertools.combinations(ops, 2):
        if not a.commutator(b).is_zero():
            bad.append({"pair": [list(map(str, la)), list(map(str, lb))]})
    return not bad, bad or None


def task_quadham(N, points):
    rep = gaudin.GaudinRep(N, _points(points))
    result = gaudin.quad_residue_check(rep)
    if result["pass"]:
        return True, None
    bad = [
        {"site": s["site"], "point": s["point"], "diff": tensor_triplets(s["witness"])}
        for s in result["sites"]
        if not s["zero"]
    ]
    return False, bad


# -- q-side tasks ------------------------------------------------------


def task_rll(N, points):
    rep = qside.QRep(N, _points(points))
    return qside.rll_check(rep), None


def task_bethe_family(N, points, with_D, k_max):
    """Pairwise commutativity of the traced fused elements, one family.

    Elements with and without the diagonal twist form two separate
    commuting families; pairs are only taken within the given one.
    """
    rep = qside.QRep(N, _points(points))
    specs = []
    for kind in ("antisym", "newton"):
        top = min(k_max, N) if kind == "antisym" else k_max
        for k in range(1, top + 1):
            specs.append((kind, k, with_D))
    bad = []
    for a, b in itertools.combinations(specs, 2):
        if not qside.bethe_commut_check(rep, a, b):
            bad.append({"pair": [list(a), list(b)]})
    return not bad, bad or None


def task_mcal_oracle(N, points, m, with_D):
    rep = qside.QRep(N, _points(points))
    return _same_operator(
        qside.mcal(rep, m, with_D), qside.mcal_collapsed(rep, m, with_D)
    )


def task_qlimit(N, points, m, with_D):
    rep = qside.QRep(N, _points(points))
    result = qside.classical_limit_compare(rep, m, with_D)
    if result["pass"]:
        return True, None
    bad = [
        {"degree": i, "diff": _repr_triplets(entries)}
        for i, entries in result["mismatches"]
    ]
    return False, bad


def task_prop_central(N, c, x_order):
    return qside.prop_central_term_check(N, c, x_order), None


def task_f_first(N, order):
    return qside.f_series_first_order_check(N, order), None


# -- symbolic (mode-algebra) tasks -------------------------------------


def task_pbw_commut(m1, m2, d_max, shifted):
    orders = [(k, d) for k in range(m2 + 1) for d in range(d_max + 1)]
    result = pbw.commute_check(2, m1, m2, orders, shifted)
    if result["pass"]:
        return True, None
    bad = [
        {"pair": [list(p["pair"][0]), list(p["pair"][1])], "diff": p["witness"]}
        for p in result["pairs"]
        if not p["zero"]
    ]
    return False, bad


def task_pbw_vacuum(m, d_max, v_order):
    orders = [(k, d) for k in range(m + 1) for d in range(d_max + 1)]
    result = pbw.vacuum_invariance_check(2, m, orders, v_order, shifted=True)
    if result["pass"]:
        return True, None
    bad = [
        {"coefficient": list(c["coefficient"]), "mode": list(c["mode"]), "image": c["witness"]}
        for c in result["checks"]
        if not c["zero"]
    ]
    return False, bad


def task_pbw_eval(points, m, u_order):
    """Symbolic coefficients, evaluated at the sites, match the
    representation-side operators coefficient by coefficient."""
    pts = _points(points)
    rep = gaudin.GaudinRep(2, pts)
    sym = pbw.theta_symbolic(2, m, u_order)
    theta = gaudin.theta_mbar(rep, m)
    ev = pbw.evaluation_map(pts)
    bad = []
    ks = sorted(set(kd[0] for kd in sym) | set(theta.coeffs))
    for k in ks:
        tensor = theta.coefficient(k)
        for d in range(u_order + 1):
            target = tensor.map_entries(
                lambda f: f.expand_at(QQ.zero, d, d)[0], ring=QQ
            )
            got = ev(sym[(k, d)]) if (k, d) in sym else None
            ok = target.is_zero() if got is None else (got - target).is_zero()
            if not ok:
                bad.append({"k": k, "d": d})
    return not bad, bad or None


# -- suite assembly ----------------------------------------------------


def _tasks_ybe(cfg):
    out = []
    for N in range(2, min(cfg["N"], 4) + 1):
        out.append(
            (
                "ybe/classical-N%d" % N,
                "three-leg commutator identity for the trigonometric r-matrix",
                "task_classical_ybe",
                {"N": N, "count": 5},
            )
        )
        out.append(
            (
                "ybe/skew-N%d" % N,
                "leg swap with inverted argument negates the r-matrix",
                "task_skew_symmetry",
                {"N": N, "count": 5},
            )
        )
    for N in range(2, min(cfg["N"], 3) + 1):
        out.append(
            (
                "ybe/quantum-N%d" % N,
                "braid-exchange identity for the quantum R-matrix over Q(q)",
                "task_quantum_ybe",
                {"N": N, "count": 5},
            )
        )
    return out


def _tasks_trace_lemmas(cfg):
    out = []
    for N in range(2, 5):
        for k in range(3, 7):
            out.append(
                (
                    "trace/cycle-N%d-k%d" % (N, k),
                    "middle-leg trace of the skew-cycle chain collapses to two legs",
                    "task_trace_cycle",
                    {"N": N, "k": k},
                )
            )
        out.append(
            (
                "trace/one-leg-N%d" % N,
                "single-leg traces of the skew tensors vanish",
                "task_trace_one_leg",
                {"N": N},
            )
        )
        out.append(
            (
                "trace/mixed-N%d" % N,
                "tracing the shared leg of a skew tensor against a flip relabels it",
                "task_trace_mixed",
                {"N": N},
            )
        )
    for N in (2, 3):
        for m in range(2, 6):
            out.append(
                (
                    "trace/chain-collapse-N%d-m%d" % (N, m),
                    "partial trace of mixed permutation chains, all leg subsets",
                    "task_trpi",
                    {"N": N, "m": m},
                )
            )
    return out


def _tasks_theta_routes(cfg):
    out = []
    for m in range(1, min(cfg["m_max"], 4) + 1):
        for shifted in (False, True):
            out.append(
                (
                    "theta/routes-m%d%s" % (m, "-shifted" if shifted else ""),
                    "generating-function and recursion routes agree",
                    "task_theta_routes",
                    {
                        "N": cfg["N"],
                        "points": cfg["points"],
                        "m": m,
                        "shifted": shifted,
                    },
                )
            )
    for m in range(1, min(cfg["m_max"], 3) + 1):
        out.append(
            (
                "theta/explicit-m%d" % m,
                "closed-form low-order operator matches the generating route",
                "task_theta_explicit",
                {"N": cfg["N"], "points": cfg["points"], "m": m},
            )
        )
    return out


def _tasks_commutativity(cfg):
    out = []
    for shifted in (False, True):
        out.append(
            (
                "commut/family%s" % ("-shifted" if shifted else ""),
                "all extracted operator coefficients pairwise commute",
                "task_commutativity",
                {
                    "N": cfg["N"],
                    "points": cfg["points"],
                    "m_max": cfg["m_max"],
                    "shifted": shifted,
                },
            )
        )
    out.append(
        (
            "commut/closing-series",
            "cubic closing-series coefficients commute with the family",
            "task_closing_series",
            {
                "N": cfg["N"],
                "points": cfg["points"],
                "m_max": min(cfg["m_max"], 2),
            },
        )
    )
    return out


def _tasks_quadham(cfg):
    return [
        (
            "quadham/residues",
            "weighted residues of the traced current square give the "
            "pairwise site Hamiltonians",
            "task_quadham",
            {"N": cfg["N"], "points": cfg["points"]},
        )
    ]


def _tasks_qside(cfg):
    out = [
        (
            "qside/exchange",
            "bivariate exchange relation for the fused q-current",
            "task_rll",
            {"N": cfg["N"], "points": cfg["points"]},
        )
    ]
    for with_D in (False, True):
        out.append(
            (
                "qside/fused-family%s" % ("-twisted" if with_D else ""),
                "traced fused elements pairwise commute within one family",
                "task_bethe_family",
                {
                    "N": cfg["N"],
                    "points": cfg["points"],
                    "with_D": with_D,
                    "k_max": 2,
                },
            )
        )
    for m in range(1, min(cfg["m_max"], 4) + 1):
        for with_D in (False, True):
            out.append(
                (
                    "qside/product-oracle-m%d%s" % (m, "-twisted" if with_D else ""),
                    "recursion and binomial-collapse forms of the traced "
                    "product agree",
                    "task_mcal_oracle",
                    {
                        "N": cfg["N"],
                        "points": cfg["points"],
                        "m": m,
                        "with_D": with_D,
                    },
                )
            )
    return out


def _tasks_qlimit(cfg):
    out = []
    for m in range(1, min(cfg["m_max"], 4) + 1):
        for with_D in (False, True):
            out.append(
                (
                    "qlimit/match-m%d%s" % (m, "-twisted" if with_D else ""),
                    "first-order q-expansion of the traced product recovers "
                    "the classical operator (central-scalar convention)",
                    "task_qlimit",
                    {
                        "N": cfg["N"],
                        "points": cfg["points"],
                        "m": m,
                        "with_D": with_D,
                    },
                )
            )
    for c in (1, -cfg["N"]):
        out.append(
            (
                "qlimit/central-term-c%d" % c,
                "second-order central term of the normalized R-matrix "
                "difference",
                "task_prop_central",
                {"N": cfg["N"], "c": c, "x_order": cfg["x_order"]},
            )
        )
    for N in range(2, 6):
        out.append(
            (
                "qlimit/normalizer-first-order-N%d" % N,
                "first-order coefficients of the R-matrix normalizer series",
                "task_f_first",
                {"N": N, "order": 4},
            )
        )
    return out


def _tasks_pbw_commut(cfg):
    m_top = min(cfg["m_max"], 3)
    d_max = min(cfg["u_order"], 3)
    out = []
    for m1 in range(1, m_top + 1):
        for m2 in range(m1, m_top + 1):
            for shifted in (False, True):
                out.append(
                    (
                        "pbw/commut-m%d-m%d%s"
                        % (m1, m2, "-shifted" if shifted else ""),
                        "mode-algebra coefficients commute identically in "
                        "the normal-ordered basis",
                        "task_pbw_commut",
                        {"m1": m1, "m2": m2, "d_max": d_max, "shifted": shifted},
                    )
                )
    out.append(
        (
            "pbw/evaluation",
            "evaluated symbolic coefficients match the representation-side "
            "operators",
            "task_pbw_eval",
            {"points": cfg["points"], "m": min(cfg["m_max"], 3), "u_order": d_max},
        )
    )
    return out


def _tasks_pbw_invariance(cfg):
    out = []
    for m in range(1, min(cfg["m_max"], 2) + 1):
        out.append(
            (
                "pbw/invariance-m%d" % m,
                "lower-current modes annihilate the shifted coefficients "
                "on the vacuum at the critical central value",
                "task_pbw_vacuum",
                {"m": m, "d_max": 2, "v_order": cfg["v_order"]},
            )
        )
    return out


_SUITE_BUILDERS = {
    "ybe": _tasks_ybe,
    "trace-lemmas": _tasks_trace_lemmas,
    "theta-routes": _tasks_theta_routes,
    "commutativity": _tasks_commutativity,
    "quadham": _tasks_quadham,
    "qside": _tasks_qside,
    "qlimit": _tasks_qlimit,
    "pbw-commut": _tasks_pbw_commut,
    "pbw-invariance": _tasks_pbw_invariance,
}


def build_tasks(suite, cfg):
    if suite == "all":
        out = []
        for name in SUITE_NAMES[:-1]:
            out.extend(_SUITE_BUILDERS[name](cfg))
        return out
    if suite not in _SUITE_BUILDERS:
        raise ValueError("unknown suite %r" % suite)
    return _SUITE_BUILDERS[suite](cfg)


def _dispatch(task):
    """Run one task; an exception it raises becomes an "error" record.

    The traceback goes to stderr; the report keeps only the exception's
    type and message, so its bytes do not depend on file paths.
    """
    check_id, claim, fn_name, kwargs = task
    try:
        ok, witness = globals()[fn_name](**kwargs)
    except Exception as exc:
        traceback.print_exc()
        return error_record(check_id, claim, exc)
    return record(check_id, claim, ok, witness)


def _run_alone(task):
    """Run one task in a fresh one-worker pool; a worker that dies while
    running it makes it an "error" record."""
    with ProcessPoolExecutor(max_workers=1) as ex:
        try:
            return ex.submit(_dispatch, task).result()
        except BrokenProcessPool as exc:
            return error_record(task[0], task[1], exc)


def run_tasks(tasks, workers=1):
    """The records of the given task descriptors, in task order.

    With several workers the tasks run in separate processes but the
    records come back in the same order, so the report built from them
    is byte-identical for any worker count.  A worker that dies breaks
    its pool and loses every unfinished task; each of those is run again
    alone in a fresh pool, so only the task that kills its own worker is
    recorded, as an "error".
    """
    if workers <= 1:
        return [_dispatch(t) for t in tasks]
    records = []
    with ProcessPoolExecutor(max_workers=workers) as ex:
        for fut in [ex.submit(_dispatch, t) for t in tasks]:
            try:
                records.append(fut.result())
            except BrokenProcessPool:
                records.append(None)
    return [
        _run_alone(t) if rec is None else rec for t, rec in zip(tasks, records)
    ]


def run_suite(suite, cfg, workers=1):
    """Run a named suite and return the report dict."""
    records = run_tasks(build_tasks(suite, cfg), workers)
    config_summary = {
        "N": cfg["N"],
        "points": list(cfg["points"]),
        "m_max": cfg["m_max"],
        "shifted": cfg["shifted"],
        "u_order": cfg["u_order"],
        "v_order": cfg["v_order"],
        "x_order": cfg["x_order"],
    }
    return build_report(suite, config_summary, records)
