"""One fresh-interpreter step of a benchmark run (started by run.py).

    python3 perfbench/worker.py setup --workload W --seed N --outdir D
    python3 perfbench/worker.py round --workload W --seed N --outdir D [--trace]

``setup`` imports the package, builds the workload's inputs and prints
``ready <scale> <sampling seconds>``; the parent times it from process
start to that line.  ``round`` also runs the operations once, timing
each, then checks the results and prints one JSON line: per-operation
seconds, the checks, a fingerprint of the results, the drift scale and,
with ``--trace``, the per-layer metrics.  Spans of a traced round go to
``D/spans-<workload>-<seed>.json``.

Untraced steps time the drift reference from a timer signal while they
work (see drift.py); the time that sampling takes is left out of every
reported time.  A traced round does not sample, since the tracer would
count the reference loop's Fraction operations.
"""

import argparse
import json
import os
import sys
import time

import drift

SETUP_INTERVAL_S = 0.01
ROUND_INTERVAL_S = 0.05


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "round"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        with drift.Sampler(SETUP_INTERVAL_S) as sampler:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, args.outdir)
        print("ready %r %r" % (sampler.scale(), sampler.spent), flush=True)
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        results, times = run_ops(workload, tracer=tracer)
        scale = None
    else:
        with drift.Sampler(ROUND_INTERVAL_S) as sampler:
            results, times = run_ops(workload, sampler=sampler)
        scale = sampler.scale()
    out = {
        "ops": times,
        "checks": workload.checks(results),
        "fingerprint": workloads.fingerprint(results),
        "scale": scale,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        path = os.path.join(args.outdir, "spans-%s-%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(out), flush=True)
    return 0


def run_ops(workload, tracer=None, sampler=None):
    """Run and time the operations, under ``tracer`` if one is given.

    Time taken by ``sampler`` during an operation is left out of it.
    """
    results = {}
    times = []
    if tracer is not None:
        tracer.install()
    try:
        for name, op in workload.operations():
            spent = sampler.spent if sampler else 0.0
            t0 = time.perf_counter()
            results[name] = op(results)
            dt = time.perf_counter() - t0
            if sampler:
                dt -= sampler.spent - spent
            times.append([name, dt])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, times


if __name__ == "__main__":
    sys.exit(main())
