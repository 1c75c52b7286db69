"""Command-line surface: generate operator families, run verification
suites, emit machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error, 3 internal error (a computation raised: a verify
task that raised is recorded with status "error" and the report is
still written).  All emitted numbers are exact rational strings.
"""

import argparse
import re
import sys

from . import gaudin
from .rationals import parse_rational
from .reports import report_bytes, scalar_str, write_json
from .suites import Q_M_MAX, SUITE_NAMES, run_suite


EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


_DEFAULTS = {
    "n": 2,
    "sites": 2,
    "points": None,
    "m_max": 2,
    "shifted": False,
    "suite": "all",
    "out": None,
    "timings": None,
    "workers": 1,
    "u_order": 3,
    "v_order": 3,
    "x_order": 4,
}

_INT_KEYS = ("n", "sites", "m_max", "workers", "u_order", "v_order", "x_order")


def load_config_file(path):
    """Plain UTF-8 key=value lines; '#' starts a comment."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        "%s:%d: expected key=value, got %r" % (path, lineno, line)
                    )
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc)
    return out


def _coerce(key, value):
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise UsageError("config key %r needs an integer, got %r" % (key, value))
    if key == "shifted":
        if isinstance(value, bool):
            return value
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise UsageError("config key 'shifted' needs a boolean, got %r" % value)
    if key == "points":
        if isinstance(value, str):
            return tuple(p.strip() for p in value.split(",") if p.strip())
        return tuple(value)
    return value


def resolve_config(args):
    """defaults < config file < explicit flags, then validate."""
    cfg = dict(_DEFAULTS)
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key not in cfg:
                raise UsageError("unknown config key %r" % key)
            cfg[key] = _coerce(key, value)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = _coerce(key, flag)
    if cfg["points"] is None:
        # default evaluation points: 1, 3, 7, ... (distinct, nonzero)
        cfg["points"] = tuple(str(2 ** k - 1) for k in range(1, cfg["sites"] + 1))
    if cfg["n"] < 1:
        raise UsageError("N must be >= 1")
    if cfg["sites"] < 1:
        raise UsageError("sites must be >= 1")
    for key in ("u_order", "v_order", "x_order"):
        if cfg[key] < 0:
            raise UsageError("%s must be >= 0" % key)
    if cfg["m_max"] < 1:
        raise UsageError("m_max must be >= 1")
    if cfg["workers"] < 1:
        raise UsageError("workers must be >= 1")
    try:
        values = [parse_rational(p) for p in cfg["points"]]
    except (ValueError, ZeroDivisionError):
        raise UsageError("points must be rationals like 3 or 1/2: %r" % (cfg["points"],))
    if len(values) != cfg["sites"]:
        raise UsageError(
            "%d points given for %d sites" % (len(values), cfg["sites"])
        )
    try:
        gaudin.Sites(cfg["n"], values)
    except ValueError as exc:
        raise UsageError(str(exc))
    if cfg["suite"] not in SUITE_NAMES:
        raise UsageError(
            "unknown suite %r (choose from %s)" % (cfg["suite"], ", ".join(SUITE_NAMES))
        )
    # internal normalized keys
    cfg["N"] = cfg.pop("n")
    return cfg


def _emit(document, out_path):
    if out_path:
        write_json(document, out_path)
    else:
        sys.stdout.buffer.write(report_bytes(document))


def cmd_hamiltonians(cfg):
    """Write the extracted operator family as one JSON document."""
    rep = gaudin.GaudinRep(cfg["N"], [parse_rational(p) for p in cfg["points"]])
    family = gaudin.extract_family(rep, cfg["m_max"], cfg["shifted"])
    dim = rep.space().dim
    operators = []
    for member in family:
        loc = member.location
        location = (
            ["pole", str(loc[1]), loc[2]] if loc[0] == "pole" else ["poly", loc[1]]
        )
        operators.append(
            {
                "m": member.m,
                "k": member.k,
                "location": location,
                "dim": dim,
                "entries": [
                    [r, c, scalar_str(v)] for (r, c), v in member.op.sorted_entries()
                ],
            }
        )
    document = {
        "kind": "operator-family",
        "N": cfg["N"],
        "points": list(cfg["points"]),
        "m_max": cfg["m_max"],
        "shifted": cfg["shifted"],
        "operators": operators,
    }
    _emit(document, cfg["out"])
    return 0


def _exit_code(report):
    if any(c["status"] == "error" for c in report["checks"]):
        return EXIT_INTERNAL
    return 0 if report["pass"] else 1


def cmd_verify(cfg):
    report = run_suite(cfg["suite"], cfg, cfg["workers"], cfg["timings"])
    _emit(report, cfg["out"])
    return _exit_code(report)


def cmd_qlimit(cfg):
    """Classical-limit comparison plus the central-term expansion check."""
    if not 1 <= cfg["m_max"] <= Q_M_MAX:
        raise UsageError(
            "qlimit supports 1 <= m_max <= %d, got %d" % (Q_M_MAX, cfg["m_max"])
        )
    report = run_suite("qlimit", cfg, cfg["workers"], cfg["timings"])
    report["note"] = (
        "classical current convention: the first-order coefficient of the "
        "q-deformed current is taken as the classical current; it differs "
        "from the bare site sum by a central scalar series, which leaves "
        "all commutativity statements unchanged"
    )
    _emit(report, cfg["out"])
    return _exit_code(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="triggaudin",
        description="Exact commuting-Hamiltonian engine: generation and "
        "verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--n", type=int, help="size of the site space C^N")
        p.add_argument("--sites", type=int, help="number of sites")
        p.add_argument(
            "--points",
            help="comma-separated evaluation points, rationals like 1,3 or 1/2",
        )
        p.add_argument("--m-max", dest="m_max", type=int, help="highest operator order")
        p.add_argument(
            "--shifted",
            action="store_const",
            const=True,
            help="use the diagonally shifted family",
        )
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--workers", type=int, help="parallel worker processes")
        p.add_argument("--u-order", dest="u_order", type=int, help="u-series order")
        p.add_argument("--v-order", dest="v_order", type=int, help="v-mode bound")
        p.add_argument("--x-order", dest="x_order", type=int, help="x-series order")

    p_ham = sub.add_parser("hamiltonians", help="write the operator family as JSON")
    common(p_ham)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver)
    p_ver.add_argument(
        "--suite",
        help="one of: %s" % ", ".join(SUITE_NAMES),
    )
    p_ver.add_argument(
        "--timings",
        help="also write one JSON line per task (id, status, CPU seconds) here",
    )

    p_ql = sub.add_parser("qlimit", help="classical-limit comparison report")
    common(p_ql)
    return parser


# a value such as "-1,2" or "-1/2,3" that argparse would take for an option
_NEGATIVE_POINTS = re.compile(r"^-\d")


def join_points(argv):
    """Glue "--points" to a following value that starts with a minus sign.

    argparse reads "--points -1,2" as "--points" with its value missing,
    since "-1,2" looks like an option; "--points=-1,2" is unambiguous.
    """
    out = []
    it = iter(argv)
    for arg in it:
        if arg == "--points":
            value = next(it, None)
            if value is not None and _NEGATIVE_POINTS.match(value):
                out.append("--points=" + value)
                continue
            out.append(arg)
            if value is not None:
                out.append(value)
            continue
        out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(join_points(argv))
    try:
        cfg = resolve_config(args)
        if args.command == "hamiltonians":
            return cmd_hamiltonians(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "qlimit":
            return cmd_qlimit(cfg)
        raise UsageError("unknown command %r" % args.command)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # tasks catch their own errors, so this is an output that cannot be written
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
