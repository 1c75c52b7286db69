"""Independent checks on the program's written outputs.

Nothing here imports triggaudin: the family document is read back from
its JSON with plain ``Fraction`` dictionaries, and a verification report
is judged from its bytes alone.
"""

import json
from fractions import Fraction


def document_operators(document):
    """The operators of a family document as {(row, col): Fraction} dicts."""
    ops = []
    for op in document["operators"]:
        ops.append({(r, c): Fraction(v) for r, c, v in op["entries"]})
    return ops


def _matmul(a, b):
    rows = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out = {}
    for (r, c), v in a.items():
        for c2, w in rows.get(c, ()):
            out[(r, c2)] = out.get((r, c2), 0) + v * w
    return out


def commutator_nonzero(a, b):
    """Entries of [a, b] that do not vanish, as a sorted list."""
    ab = _matmul(a, b)
    ba = _matmul(b, a)
    diff = {}
    for key in set(ab) | set(ba):
        d = ab.get(key, 0) - ba.get(key, 0)
        if d:
            diff[key] = d
    return sorted(diff.items())


def noncommuting_pairs(ops):
    """Index pairs (i, j), i < j, whose commutator is not zero."""
    bad = []
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if commutator_nonzero(ops[i], ops[j]):
                bad.append((i, j))
    return bad


def distinct_diagonal(dim):
    """diag(0, 1, ..., dim-1): commutes with no operator that has an
    off-diagonal entry, since [A, D]_ij = A_ij (j - i)."""
    return {(i, i): Fraction(i) for i in range(1, dim)}


def diagonal_is_rejected(ops, dim):
    """The commutator check must see that no family with an off-diagonal
    entry commutes with a diagonal of distinct entries."""
    diagonal = distinct_diagonal(dim)
    return any(commutator_nonzero(op, diagonal) for op in ops)


def report_problems(data):
    """Reasons a verification report's bytes are not a passing report."""
    try:
        report = json.loads(data)
    except ValueError as exc:
        return ["not JSON: %s" % exc]
    problems = []
    if report.get("pass") is not True:
        problems.append("top-level pass is not true")
    checks = report.get("checks") or []
    if not checks:
        problems.append("no checks")
    for rec in checks:
        if rec.get("status") != "pass":
            problems.append("check %s: %s" % (rec.get("id"), rec.get("status")))
    if data != (json.dumps(report, indent=2, sort_keys=True) + "\n").encode():
        problems.append("bytes are not the canonical serialisation")
    return problems


def failing_copy(data):
    """A copy of a passing report with its last check marked failed."""
    report = json.loads(data)
    report["checks"][-1]["status"] = "fail"
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def report_checks(code, data):
    """Checks of one ``verify`` run from its exit code and report bytes."""
    return [("verify exits 0", code == 0),
            ("report passes", not report_problems(data)),
            ("control: a report with a failing check is rejected",
             bool(report_problems(failing_copy(data))))]
