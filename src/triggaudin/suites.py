"""Named verification suites with deterministic, parallelizable checks.

Each suite is a fixed ordered list of task descriptors; tasks are pure
module-level functions with plain-data arguments, so they can run in
worker processes while the assembled report stays byte-identical for
any worker count.  Every task returns (ok, witness) with a
JSON-serializable witness describing the failure; a task that raises
is recorded with status "error" instead of stopping the suite.

The suites come from one table, ``_SUITES``, of generators of (id,
task name, kwargs); ``_CLAIMS`` holds each task's claim, and
:func:`build_tasks` joins the two.  A suite's orders stop at --m-max
(or --u-order) and at a named cap such as ``THETA_M_MAX``.
"""

import itertools
import json
import random
import time
import traceback

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

_SEED = 20260823

# Order caps: each check runs up to --m-max (or --u-order), at most its cap.
Q_M_MAX = 6  # q-side products, and so the ``qlimit`` command's --m-max
THETA_M_MAX = 4  # the two theta routes
EXPLICIT_M_MAX = 3  # the closed-form low-order operators
CLOSING_M_MAX = 2  # the family the closing series is checked against
PBW_M_MAX = 3  # mode-algebra commutators and the evaluation map
PBW_U_ORDER = 3  # their u-order
VACUUM_M_MAX = 2  # vacuum invariance


def _points(strings):
    return tuple(parse_rational(s) for s in strings)


def _rand_rational(rng, avoid):
    while True:
        x = QQ.from_int(rng.randint(-9, 9)) / QQ.from_int(rng.randint(1, 9))
        if x and x not in avoid:
            return x


def _same_operator(a, b):
    """(ok, witness) for a == b; the witness maps each degree of a - b to
    the entries of its coefficient."""
    diff = a - b
    if diff.is_zero():
        return True, None
    return False, {str(k): tensor_triplets(t) for k, t in diff.coeffs.items()}


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
    middle = ["t%d" % i for i in range(2, k)]
    traced = tc_cycle_chain(space, QQ, tuple(range(k, 0, -1)), middle)
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
    """The two theta routes agree.  Both end in the same traced product
    and agree before it, so this cannot see a fault there: with that
    product's kept and traced tables swapped, every ``theta/routes-*``
    (and ``commut/*``) record still passes; ``theta/explicit-*`` fail."""
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
    cleared = [gaudin.cleared(op) for _, op in ops]
    cleared += [gaudin.cleared(member.op) for member in family]
    with_member, within = [], []
    for i, j, comm in gaudin.packed_commutators(cleared, rows=len(ops)):
        if not comm:
            continue
        loc = list(map(str, ops[i][0]))
        if j < len(ops):
            within.append({"pair": [loc, list(map(str, ops[j][0]))]})
        else:
            member = family[j - len(ops)].label()
            with_member.append({"closing": loc, "member": member})
    bad = with_member + within
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
    """The q-side limit matches theta_m.  Both sides use the same traced
    product, so as in :func:`task_theta_routes` every ``qlimit/match-*``
    record passes with that product's kept and traced tables swapped."""
    rep = qside.QRep(N, _points(points))
    result = qside.classical_limit_compare(rep, m, with_D)
    if result["pass"]:
        return True, None
    bad = [
        {"degree": i, "diff": tensor_triplets(entries)}
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


def _orders(cfg, cap):
    """m = 1, 2, ... up to --m-max, at most ``cap``."""
    return range(1, min(cfg["m_max"], cap) + 1)


def _variants(word):
    """(flag, id suffix) of the plain variant, then of the ``word`` one."""
    return (False, ""), (True, "-" + word)


def _site_args(cfg, **more):
    """A task's kwargs on the configured sites: N, points, then ``more``."""
    return {"N": cfg["N"], "points": cfg["points"], **more}


def _ybe(cfg):
    for N in range(2, min(cfg["N"], 4) + 1):
        yield "ybe/classical-N%d" % N, "task_classical_ybe", {"N": N, "count": 5}
        yield "ybe/skew-N%d" % N, "task_skew_symmetry", {"N": N, "count": 5}
    for N in range(2, min(cfg["N"], 3) + 1):
        yield "ybe/quantum-N%d" % N, "task_quantum_ybe", {"N": N, "count": 5}


def _trace_lemmas(cfg):
    for N in range(2, 5):
        for k in range(3, 7):
            yield "trace/cycle-N%d-k%d" % (N, k), "task_trace_cycle", {"N": N, "k": k}
        yield "trace/one-leg-N%d" % N, "task_trace_one_leg", {"N": N}
        yield "trace/mixed-N%d" % N, "task_trace_mixed", {"N": N}
    for N in (2, 3):
        for m in range(2, 6):
            yield "trace/chain-collapse-N%d-m%d" % (N, m), "task_trpi", {"N": N, "m": m}


def _theta_routes(cfg):
    for m in _orders(cfg, THETA_M_MAX):
        for shifted, tag in _variants("shifted"):
            args = _site_args(cfg, m=m, shifted=shifted)
            yield "theta/routes-m%d%s" % (m, tag), "task_theta_routes", args
    for m in _orders(cfg, EXPLICIT_M_MAX):
        yield "theta/explicit-m%d" % m, "task_theta_explicit", _site_args(cfg, m=m)


def _commutativity(cfg):
    for shifted, tag in _variants("shifted"):
        args = _site_args(cfg, m_max=cfg["m_max"], shifted=shifted)
        yield "commut/family" + tag, "task_commutativity", args
    args = _site_args(cfg, m_max=min(cfg["m_max"], CLOSING_M_MAX))
    yield "commut/closing-series", "task_closing_series", args


def _quadham(cfg):
    yield "quadham/residues", "task_quadham", _site_args(cfg)


def _q_products(cfg, prefix, task):
    """The checks of one q-side product for each order, plain then twisted."""
    for m in _orders(cfg, Q_M_MAX):
        for with_D, tag in _variants("twisted"):
            args = _site_args(cfg, m=m, with_D=with_D)
            yield "%s-m%d%s" % (prefix, m, tag), task, args


def _qside(cfg):
    yield "qside/exchange", "task_rll", _site_args(cfg)
    for with_D, tag in _variants("twisted"):
        args = _site_args(cfg, with_D=with_D, k_max=2)
        yield "qside/fused-family" + tag, "task_bethe_family", args
    yield from _q_products(cfg, "qside/product-oracle", "task_mcal_oracle")


def _qlimit(cfg):
    yield from _q_products(cfg, "qlimit/match", "task_qlimit")
    for c in (1, -cfg["N"]):
        args = {"N": cfg["N"], "c": c, "x_order": cfg["x_order"]}
        yield "qlimit/central-term-c%d" % c, "task_prop_central", args
    for N in range(2, 6):
        args = {"N": N, "order": 4}
        yield "qlimit/normalizer-first-order-N%d" % N, "task_f_first", args


def _pbw_commut(cfg):
    m_top = min(cfg["m_max"], PBW_M_MAX)
    d_max = min(cfg["u_order"], PBW_U_ORDER)
    for m1, m2 in itertools.combinations_with_replacement(range(1, m_top + 1), 2):
        for shifted, tag in _variants("shifted"):
            args = {"m1": m1, "m2": m2, "d_max": d_max, "shifted": shifted}
            yield "pbw/commut-m%d-m%d%s" % (m1, m2, tag), "task_pbw_commut", args
    args = {"points": cfg["points"], "m": m_top, "u_order": d_max}
    yield "pbw/evaluation", "task_pbw_eval", args


def _pbw_invariance(cfg):
    for m in _orders(cfg, VACUUM_M_MAX):
        args = {"m": m, "d_max": 2, "v_order": cfg["v_order"]}
        yield "pbw/invariance-m%d" % m, "task_pbw_vacuum", args


_SUITES = {
    "ybe": _ybe,
    "trace-lemmas": _trace_lemmas,
    "theta-routes": _theta_routes,
    "commutativity": _commutativity,
    "quadham": _quadham,
    "qside": _qside,
    "qlimit": _qlimit,
    "pbw-commut": _pbw_commut,
    "pbw-invariance": _pbw_invariance,
}

SUITE_NAMES = (*_SUITES, "all")

_CLAIMS = {
    "task_classical_ybe": "three-leg commutator identity for the trigonometric "
    "r-matrix",
    "task_skew_symmetry": "leg swap with inverted argument negates the r-matrix",
    "task_quantum_ybe": "braid-exchange identity for the quantum R-matrix over Q(q)",
    "task_trace_cycle": "middle-leg trace of the skew-cycle chain collapses to "
    "two legs",
    "task_trace_one_leg": "single-leg traces of the skew tensors vanish",
    "task_trace_mixed": "tracing the shared leg of a skew tensor against a flip "
    "relabels it",
    "task_trpi": "partial trace of mixed permutation chains, all leg subsets",
    "task_theta_routes": "generating-function and recursion routes agree",
    "task_theta_explicit": "closed-form low-order operator matches the generating "
    "route",
    "task_commutativity": "all extracted operator coefficients pairwise commute",
    "task_closing_series": "cubic closing-series coefficients commute with the family",
    "task_quadham": "weighted residues of the traced current square give the "
    "pairwise site Hamiltonians",
    "task_rll": "bivariate exchange relation for the fused q-current",
    "task_bethe_family": "traced fused elements pairwise commute within one family",
    "task_mcal_oracle": "recursion and binomial-collapse forms of the traced "
    "product agree",
    "task_qlimit": "first-order q-expansion of the traced product recovers "
    "the classical operator (central-scalar convention)",
    "task_prop_central": "second-order central term of the normalized R-matrix "
    "difference",
    "task_f_first": "first-order coefficients of the R-matrix normalizer series",
    "task_pbw_commut": "mode-algebra coefficients commute identically in "
    "the normal-ordered basis",
    "task_pbw_eval": "evaluated symbolic coefficients match the "
    "representation-side operators",
    "task_pbw_vacuum": "lower-current modes annihilate the shifted coefficients "
    "on the vacuum at the critical central value",
}


def build_tasks(suite, cfg):
    """The task descriptors of a suite, in run order.

    Each descriptor is ``(id, claim, task name, kwargs)``: the check's
    id, its task's claim, the name of the ``task_*`` function in this
    module that runs it, and the keyword arguments it is called with,
    plain data, so a descriptor can go to a worker process.  ``"all"``
    is every suite in turn, in the order of :data:`SUITE_NAMES`.
    """
    if suite == "all":
        rows = itertools.chain.from_iterable(gen(cfg) for gen in _SUITES.values())
    elif suite in _SUITES:
        rows = _SUITES[suite](cfg)
    else:
        raise ValueError("unknown suite %r" % suite)
    return [(check_id, _CLAIMS[fn], fn, kwargs) for check_id, fn, kwargs in rows]


def _dispatch(task):
    """Run one task: its record and the process CPU seconds it took.

    An exception the task raises becomes an "error" record.  The
    traceback goes to stderr; the report keeps only the exception's
    type and message, so its bytes do not depend on file paths.
    """
    check_id, claim, fn_name, kwargs = task
    t0 = time.process_time()
    try:
        ok, witness = globals()[fn_name](**kwargs)
    except Exception as exc:
        traceback.print_exc()
        rec = error_record(check_id, claim, exc)
    else:
        rec = record(check_id, claim, ok, witness)
    return rec, time.process_time() - t0


def _run_alone(task):
    """Run one task in a fresh one-worker pool; a worker that dies while
    running it makes it an "error" record, with no CPU time."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=1) as ex:
        try:
            return ex.submit(_dispatch, task).result()
        except BrokenProcessPool as exc:
            return error_record(task[0], task[1], exc), None


def run_timed(tasks, workers=1):
    """(record, CPU seconds) for each task descriptor, in task order.

    With several workers the tasks run in separate processes but the
    records come back in the same order, so the report built from them
    is byte-identical for any worker count; each worker measures its
    own task's CPU time.  A worker that dies breaks its pool and loses
    every unfinished task; each of those is run again alone in a fresh
    pool, so only the task that kills its own worker is recorded, as an
    "error" with no CPU time (None).
    """
    if workers <= 1:
        return [_dispatch(t) for t in tasks]
    # imported here: a one-worker run does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    with ProcessPoolExecutor(max_workers=workers) as ex:
        for fut in [ex.submit(_dispatch, t) for t in tasks]:
            try:
                results.append(fut.result())
            except BrokenProcessPool:
                results.append(None)
    return [_run_alone(t) if res is None else res for t, res in zip(tasks, results)]


def run_tasks(tasks, workers=1):
    """The records of the given task descriptors, in task order (see
    :func:`run_timed`)."""
    return [rec for rec, _ in run_timed(tasks, workers)]


def write_timings(results, path):
    """One JSON line per task: its id, status and CPU seconds (null when
    its worker died).  Timings stay out of the report, whose bytes do
    not depend on them."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec, cpu_s in results:
            line = {"id": rec["id"], "status": rec["status"], "cpu_s": cpu_s}
            fh.write(json.dumps(line) + "\n")


def run_suite(suite, cfg, workers=1, timings=None):
    """Run a named suite and return the report dict; with ``timings``, a
    path, also write the tasks' timings there (:func:`write_timings`)."""
    results = run_timed(build_tasks(suite, cfg), workers)
    if timings:
        write_timings(results, timings)
    records = [rec for rec, _ in results]
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
