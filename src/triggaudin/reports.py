"""Machine-readable verification reports.

Reports are plain JSON with every number rendered as an exact rational
string ("p/q" or "p"); no floats and no timestamps appear anywhere, so
a report is byte-identical across runs and worker counts.  Failing
checks carry a witness (sparse triplets of the offending difference)
sufficient to reproduce the discrepancy; a check whose task raised has
status "error" and the exception's type and message as its witness.
"""

import json
import os


def scalar_str(c):
    """Exact string form of a coefficient (rational or rational function)."""
    if hasattr(c, "numerator") and hasattr(c, "denominator"):
        return str(c)
    return repr(c)


def tensor_triplets(entries):
    """Sparse [[row, col, "p/q"], ...] form, deterministically ordered.

    Accepts either an AuxTensor or an iterable of ((r, c), value).
    """
    if hasattr(entries, "sorted_entries"):
        entries = entries.sorted_entries()
    return [[r, c, scalar_str(v)] for (r, c), v in entries]


def record(check_id, claim, ok, witness=None):
    return {
        "id": check_id,
        "claim": claim,
        "status": "pass" if ok else "fail",
        "witness": None if ok else witness,
    }


def error_record(check_id, claim, exc):
    """A check whose task raised: the exception is its witness."""
    return {
        "id": check_id,
        "claim": claim,
        "status": "error",
        "witness": {"type": type(exc).__name__, "message": str(exc)},
    }


def build_report(suite, config, records):
    return {
        "suite": suite,
        "config": config,
        "pass": all(r["status"] == "pass" for r in records),
        "checks": records,
    }


def report_bytes(report):
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(document, path):
    """Atomic write: the file appears complete or not at all."""
    data = report_bytes(document)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
