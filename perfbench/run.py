"""Benchmark of triggaudin: the classical side, the q-side and
``triggaudin verify --suite all``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads: ``classical-family``, ``q-identities``, ``verify-all``.

Every step runs in a fresh interpreter (worker.py).  ``setup_s`` is the
median of sixteen timed start-ups that import the package and build the
inputs, half before the rounds and half after.  With ``--trace 0``
whole rounds of the workload are repeated while they fit in S seconds
(at least one); ``wall_s`` is the median round time and
``peak_rss_mb`` the median peak resident memory of a round's process.
Both times are scaled to the reference speed that the drift reference
measured while they ran (see drift.py); the raw times are in the
details.  With ``--trace 1`` one untraced and one traced round run, and
the per-layer metrics of the traced round are printed with the tracing
overhead; both rounds must give the same results.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it and
``perfbench/out/result-<workload>-<seed>-<trace>.json`` hold the
details.  Exit codes: 0 every check held, 1 a check failed, 2 the
benchmark could not run (no result is printed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")
WORKLOADS = ("classical-family", "q-identities", "verify-all")
SETUP_PROBES = 16
BUDGET_S = 170  # every child is killed after this many seconds of the run

sys.path.insert(0, HERE)
import drift  # noqa: E402  (pure Python, no triggaudin import)


class BenchError(Exception):
    pass


class Round:
    """One round: per-operation seconds, checks, fingerprint, memory, and
    the drift scale (None for a traced round, which does not sample)."""

    def __init__(self, ops, checks, fingerprint, rss_bytes, scale,
                 layers=None):
        self.ops = ops
        self.checks = checks
        self.fingerprint = fingerprint
        self.rss_bytes = rss_bytes
        self.scale = scale
        self.layers = layers

    @property
    def wall(self):
        return sum(t for _, t in self.ops)


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def spawn(self, mode, trace=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--outdir", OUTDIR] + (["--trace"] if trace else [])
        return subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE)

    def finish(self, proc):
        """Read the child's output to its end and reap it.

        Returns (stdout, peak resident bytes of the child).
        """
        left = self.deadline - time.monotonic()
        timer = threading.Timer(max(left, 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError("%s step of %s exited %d"
                             % (proc.args[2], self.workload, proc.returncode))
        return out, usage.ru_maxrss * 1024

    def setup_probe(self):
        """Scaled and raw seconds from process start to ``ready``."""
        t0 = time.perf_counter()
        proc = self.spawn("setup")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        self.finish(proc)
        word, scale, spent = line.split()
        if word != "ready":
            raise BenchError("set-up of %s failed" % self.workload)
        raw = elapsed - float(spent)
        return raw * float(scale), raw

    def round(self, trace=False):
        out, rss = self.finish(self.spawn("round", trace))
        data = json.loads(out.strip().splitlines()[-1])
        return Round(data["ops"], data["checks"], data["fingerprint"], rss,
                     data["scale"], data.get("layers"))


def median(values):
    """The median; of an even number of values, the lower middle one.

    Contention for the processor only ever adds time, so of the two
    middle values the lower is the less disturbed; with the one or two
    rounds a run affords this is the fastest of them.
    """
    return statistics.median_low(values)


def run(workload, seed, seconds, trace):
    os.makedirs(OUTDIR, exist_ok=True)
    runner = Runner(workload, seed)
    runner.setup_probe()  # warm-up: bytecode and file caches
    # half of the set-up probes before the rounds and half after, so that
    # they sample the same stretch of machine time as the rounds
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES // 2)]
    rounds = []
    if trace:
        rounds = [runner.round(False), runner.round(True)]
    else:
        started = time.monotonic()
        while True:
            rounds.append(runner.round())
            used = time.monotonic() - started
            if used + used / len(rounds) > seconds:
                break
    setups += [runner.setup_probe() for _ in range(SETUP_PROBES - len(setups))]

    failed = [[i, name] for i, r in enumerate(rounds)
              for name, ok in r.checks if not ok]
    attempted = sum(len(r.checks) for r in rounds) + len(rounds)
    for i, r in enumerate(rounds):  # one determinism check per round
        if r.fingerprint != rounds[0].fingerprint:
            failed.append([i, "results equal those of the first round"])

    if trace:
        metrics = layer_metrics(rounds[0], rounds[1])
    else:
        metrics = end_to_end_metrics(rounds, setups)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "rounds": [{"ops": r.ops, "wall_raw_s": r.wall, "scale": r.scale,
                    "peak_rss_mb": r.rss_bytes / 2 ** 20,
                    "fingerprint": r.fingerprint} for r in rounds],
        "setup_s": [s for s, _ in setups],
        "setup_raw_s": [raw for _, raw in setups],
        "failed_checks": failed,
    }
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    name = "result-%s-%d-%d.json" % (workload, seed, int(trace))
    with open(os.path.join(OUTDIR, name), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if not failed else 1


def end_to_end_metrics(rounds, setups):
    """wall_s, setup_s and peak_rss_mb of an untraced run.

    ``setups`` holds (scaled, raw) pairs; times are the scaled ones.
    """
    wall = median([r.wall * r.scale for r in rounds])
    rss = median([r.rss_bytes for r in rounds]) / 2 ** 20
    return {"wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": median([s for s, _ in setups]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}


def layer_metrics(plain, traced):
    """The traced round's per-layer metrics, the tracing overhead (raw
    seconds) and the drift reference timed during the untraced round."""
    from tracer import LAYER_METRICS

    values = dict(traced.layers)
    values["trace.overhead_s"] = traced.wall - plain.wall
    values["drift.ref_loop_s"] = drift.NOMINAL_S / plain.scale
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "triggaudin", "__init__.py")):
        print("error: no triggaudin package under %s" % SRC, file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
