"""End-to-end acceptance checks, one numbered criterion per test.

Every identity is checked with exact rational arithmetic and
zero-tolerance equality; each test prints a single PASS/FAIL line and
enforces its runtime budget.
"""

import hashlib
import time

from triggaudin import cli, gaudin, pbw, qside
from triggaudin.rationals import QQ, rational
from triggaudin.reports import report_bytes
from triggaudin.suites import (
    run_suite,
    task_bethe_family,
    task_classical_ybe,
    task_pbw_eval,
    task_quantum_ybe,
    task_skew_symmetry,
    task_trace_cycle,
    task_trace_mixed,
    task_trace_one_leg,
    task_trpi,
)

PTS2 = (rational(1), rational(3))
PTS3 = (rational(1), rational(3), rational(7))
STR2 = ("1", "3")
STR3 = ("1", "3", "7")


# sha256 of the default ``verify --suite all`` report; a change that
# alters any claim, id, order or verdict must update it deliberately
REPORT_SHA256 = "bbc65de4ecf4e7ff59db46b49da6d69222f790d1edf52289dbd61289a0aebab3"


def _points(l):
    return PTS2 if l == 2 else PTS3


def _verdict(capsys, n, ok, elapsed, budget):
    status = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    with capsys.disabled():
        print("CRITERION %d: %s" % (n, status))
    assert ok
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_r_matrix_axioms(capsys):
    t0 = time.monotonic()
    ok = True
    for N in (2, 3, 4):
        ok = ok and task_classical_ybe(N, 5)[0]
        ok = ok and task_skew_symmetry(N, 5)[0]
    for N in (2, 3):
        ok = ok and task_quantum_ybe(N, 3)[0]
    _verdict(capsys, 1, ok, time.monotonic() - t0, 10.0)


def test_criterion_02_quadratic_hamiltonians(capsys):
    t0 = time.monotonic()
    ok = True
    for N, l in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rep = gaudin.GaudinRep(N, _points(l))
        ok = ok and gaudin.quad_residue_check(rep)["pass"]
    _verdict(capsys, 2, ok, time.monotonic() - t0, 30.0)


def test_criterion_03_explicit_low_orders(capsys):
    t0 = time.monotonic()
    ok = True
    for N, l in ((2, 2), (2, 3), (3, 2)):
        rep = gaudin.GaudinRep(N, _points(l))
        for m in (1, 2, 3):
            a = gaudin.theta_generating(rep, m)
            b = gaudin.explicit_theta(rep, m)
            ok = ok and a == b
    _verdict(capsys, 3, ok, time.monotonic() - t0, 60.0)


def test_criterion_04_route_equivalence(capsys):
    t0 = time.monotonic()
    ok = True
    for N, l in ((2, 2), (2, 3), (3, 2)):
        rep = gaudin.GaudinRep(N, _points(l))
        for m in (1, 2, 3, 4):
            ok = ok and gaudin.theta_generating(rep, m) == gaudin.theta_mbar(rep, m)
    _verdict(capsys, 4, ok, time.monotonic() - t0, 300.0)


def test_criterion_05_family_commutativity(capsys):
    t0 = time.monotonic()
    ok = True
    for N, l, m_max in ((2, 2, 4), (2, 3, 3), (3, 2, 3)):
        rep = gaudin.GaudinRep(N, _points(l))
        for shifted in (False, True):
            family = gaudin.extract_family(rep, m_max, shifted)
            report = gaudin.commutativity_report(family)
            ok = ok and report["pass"]
    _verdict(capsys, 5, ok, time.monotonic() - t0, 600.0)


def test_criterion_06_trace_lemmas(capsys):
    t0 = time.monotonic()
    ok = True
    for N in (2, 3, 4):
        for k in (3, 4, 5, 6):
            ok = ok and task_trace_cycle(N, k)[0]
        ok = ok and task_trace_one_leg(N)[0]
        ok = ok and task_trace_mixed(N)[0]
    for N in (2, 3):
        for m in (2, 3, 4, 5):
            ok = ok and task_trpi(N, m)[0]
    _verdict(capsys, 6, ok, time.monotonic() - t0, 60.0)


def test_criterion_07_qside_commutativity(capsys):
    t0 = time.monotonic()
    ok = True
    for with_D in (False, True):
        ok = ok and task_bethe_family(2, STR2, with_D, 2)[0]
    _verdict(capsys, 7, ok, time.monotonic() - t0, 300.0)


def test_criterion_08_classical_limit(capsys):
    t0 = time.monotonic()
    ok = True
    rep = qside.QRep(2, PTS2)
    for m in (1, 2, 3):
        for with_D in (False, True):
            ok = ok and qside.classical_limit_compare(rep, m, with_D)["pass"]
    for N in (2, 3):
        for c in (1, -N):
            ok = ok and qside.prop_central_term_check(N, c, 8)
    for N in (2, 3, 4, 5):
        ok = ok and qside.f_series_first_order_check(N, 4)
    _verdict(capsys, 8, ok, time.monotonic() - t0, 300.0)


def test_criterion_09_symbolic_commutators(capsys):
    t0 = time.monotonic()
    ok = True
    orders = [(k, d) for k in range(4) for d in range(4)]
    for shifted in (False, True):
        for m1 in (1, 2, 3):
            for m2 in range(m1, 4):
                result = pbw.commute_check(2, m1, m2, orders, shifted)
                ok = ok and result["pass"]
    _verdict(capsys, 9, ok, time.monotonic() - t0, 600.0)


def test_criterion_10_symbolic_invariance(capsys):
    t0 = time.monotonic()
    ok = True
    orders = [(k, d) for k in range(3) for d in range(3)]
    for m in (1, 2):
        result = pbw.vacuum_invariance_check(2, m, orders, 3, shifted=True)
        ok = ok and result["pass"]
    _verdict(capsys, 10, ok, time.monotonic() - t0, 600.0)


def test_criterion_11_cross_module_oracle(capsys):
    t0 = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        ok = ok and task_pbw_eval(STR2, m, 3)[0]
    _verdict(capsys, 11, ok, time.monotonic() - t0, 120.0)


def test_criterion_12_deterministic_reports(capsys):
    t0 = time.monotonic()
    parser = cli.build_parser()
    args = parser.parse_args(["verify"])
    cfg = cli.resolve_config(args)
    reports = [report_bytes(run_suite("all", cfg, w)) for w in (1, 2, 8)]
    ok = reports[0] == reports[1] == reports[2]
    ok = ok and hashlib.sha256(reports[0]).hexdigest() == REPORT_SHA256
    _verdict(capsys, 12, ok, time.monotonic() - t0, None)
