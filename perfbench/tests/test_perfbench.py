"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import drift  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from triggaudin import cli, gaudin, qside, suites  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _small_results():
    """One small call into every traced layer."""
    points = workloads.points_for(3)
    rep = gaudin.GaudinRep(2, points)
    qrep = qside.QRep(2, points)
    family = gaudin.extract_family(rep, 2)
    return {
        "generating": gaudin.theta_generating(rep, 2),
        "mbar": gaudin.theta_mbar(rep, 2, True),
        "family": family,
        "commutators": gaudin.commutativity_report(family),
        "mcal": qside.mcal(qrep, 1, True),
        "limit": qside.classical_limit_compare(qrep, 1),
        "central": qside.prop_central_term_check(2, 1, 2),
        "task": suites.task_trace_cycle(2, 4),
        "pbw": suites.task_pbw_commut(1, 1, 0, False),
    }


def test_traced_and_untraced_results_are_equal():
    plain = workloads.fingerprint(_small_results())
    with tracer.Tracer() as t:
        traced = workloads.fingerprint(_small_results())
    assert traced == plain
    m = t.metrics()
    for name in ("rationals.fraction_ops", "poly.gcd_calls", "ratfun.ops",
                 "series.mul_calls", "kernels.matmul_calls",
                 "kernels.matmul_products", "tensor.embed_calls",
                 "weyl.diffop_mul_calls", "weyl.qdiffop_mul_calls",
                 "rmatrices.build_calls", "qside.eps_expand_calls",
                 "pbw.normal_order_calls"):
        assert m[name] > 0, name
    for name in ("gaudin.theta_generating_s", "gaudin.theta_mbar_s",
                 "gaudin.extract_family_s", "gaudin.commutators_s",
                 "qside.mcal_s", "qside.classical_limit_s",
                 "qside.central_term_s"):
        assert m[name] > 0, name
    assert m["suites.tasks"] == 2
    assert 0 < m["poly.gcd_useful_ratio"] < 1
    assert m["tensor.peak_dim"] == 2 ** 4  # two aux legs and two sites


def test_tracer_puts_every_original_back():
    from triggaudin import poly, tensor
    import fractions

    before = (poly.UniPoly.gcd, tensor.sparse_matmul, gaudin.extract_family,
              gaudin.ThetaContext.theta_mbar, suites.task_trpi,
              fractions.Fraction.__add__)
    with tracer.Tracer():
        assert tensor.sparse_matmul is not before[1]
    after = (poly.UniPoly.gcd, tensor.sparse_matmul, gaudin.extract_family,
             gaudin.ThetaContext.theta_mbar, suites.task_trpi,
             fractions.Fraction.__add__)
    assert after == before


def test_spans_nest_inside_their_parents():
    with tracer.Tracer() as t:
        gaudin.extract_family(gaudin.GaudinRep(2, workloads.points_for(1)), 2)
    spans = t.span_records()
    assert spans[0]["name"] == "gaudin.extract_family"
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_printed_metrics_are_the_ones_in_benchmark_json():
    bench = _bench_json()
    listed_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    with tracer.Tracer() as t:
        _small_results()
    plain = run.Round([["op", 1.0]], [], "x", 2 ** 20, 0.5)
    traced = run.Round([["op", 1.5]], [], "x", 2 ** 20, None, t.metrics())
    printed = run.layer_metrics(plain, traced)
    assert {k: v["unit"] for k, v in printed.items()} == listed_layer
    assert printed["trace.overhead_s"]["value"] == 0.5
    assert printed["drift.ref_loop_s"]["value"] == drift.NOMINAL_S / 0.5

    listed_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    rounds = [run.Round([["a", 1.0], ["b", 2.0]], [], "x", 3 * 2 ** 20, 1.0),
              run.Round([["a", 3.0], ["b", 2.0]], [], "x", 5 * 2 ** 20, 0.5)]
    setups = [(0.1, 0.2), (0.3, 0.4), (0.2, 0.1)]
    printed = run.end_to_end_metrics(rounds, setups)
    assert {k: v["unit"] for k, v in printed.items()} == listed_e2e
    assert printed["wall_s"]["value"] == 2.5  # the lower of 3 * 1.0, 5 * 0.5
    assert printed["setup_s"]["value"] == 0.2
    assert printed["peak_rss_mb"]["value"] == 3.0


def test_sampler_times_the_reference_while_code_runs():
    with drift.Sampler(0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent < 0.3
    assert sampler.scale() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_the_workloads_run_py_accepts():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_seed_gives_small_distinct_nonzero_points():
    for seed in range(50):
        points = workloads.points_for(seed)
        assert points == workloads.points_for(seed)
        assert len(set(points)) == 2 and all(points)
        moved = workloads.perturbed(points)
        assert moved != points and len(set(moved)) == 2 and all(moved)


def test_negative_controls_fail():
    points = workloads.points_for(7)
    rep = gaudin.GaudinRep(2, points)
    family = gaudin.extract_family(rep, 2)
    assert workloads.routes_at_other_points_differ(rep)
    assert workloads.foreign_member_is_flagged(family)
    assert workloads.twisted_pair_fails(qside.QRep(2, points))


def test_document_check_and_its_control(tmp_path):
    path = str(tmp_path / "family.json")
    points = workloads.points_for(2)
    code = cli.main(["hamiltonians", "--n", "2", "--sites", "2",
                     workloads.points_arg(points), "--m-max", "2",
                     "--out", path])
    assert code == 0
    with open(path) as fh:
        doc = json.load(fh)
    ops = checks.document_operators(doc)
    family = gaudin.extract_family(gaudin.GaudinRep(2, points), 2)
    assert workloads._document_matches(doc, family)
    assert len(ops) > 1 and checks.noncommuting_pairs(ops) == []
    assert checks.diagonal_is_rejected(ops, doc["operators"][0]["dim"])


def test_report_checks_and_their_controls(tmp_path):
    path = str(tmp_path / "report.json")
    assert cli.main(["verify", "--suite", "quadham", "--out", path]) == 0
    with open(path, "rb") as fh:
        data = fh.read()
    assert all(ok for _, ok in checks.report_checks(0, data))
    assert checks.report_problems(checks.failing_copy(data))
    assert checks.report_problems(data.replace(b"\n", b" "))
    assert not all(ok for _, ok in checks.report_checks(1, data))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_refuses_without_the_program(tmp_path, workload):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
