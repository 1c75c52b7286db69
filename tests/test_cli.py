"""Command-line surface: config resolution, reports, exit codes."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from triggaudin import cli, gaudin, qside, suites
from triggaudin.kernels import sparse_matmul, sparse_add
from triggaudin.rationals import parse_rational
from triggaudin.reports import report_bytes
from triggaudin.suites import run_suite, run_tasks


def run(argv):
    return cli.main(argv)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestConfig:
    def test_file_then_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sample run\n"
            "n = 2\n"
            "sites = 2\n"
            "points = 1, 3\n"
            "m-max = 1\n"
        )
        out = tmp_path / "fam.json"
        code = run(
            [
                "hamiltonians",
                "--config",
                str(cfg),
                "--m-max",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = load(out)
        assert doc["kind"] == "operator-family"
        assert doc["N"] == 2
        assert doc["m_max"] == 2
        assert doc["points"] == ["1", "3"]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sites = 2\nflavour = strange\n")
        assert run(["verify", "--config", str(cfg)]) == 2

    def test_duplicate_points_rejected(self):
        assert run(["verify", "--points", "1,1"]) == 2

    def test_zero_point_rejected(self):
        assert run(["verify", "--points", "0,2"]) == 2

    def test_malformed_point_rejected(self):
        assert run(["verify", "--points", "abc,2"]) == 2

    def test_zero_denominator_point_rejected(self, capsys):
        assert run(["hamiltonians", "--n", "2", "--points=1/0,2"]) == 2
        assert "points must be rationals like 3 or 1/2" in capsys.readouterr().err

    def test_zero_denominator_point_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 1/0, 2\n")
        assert run(["hamiltonians", "--config", str(cfg)]) == 2
        assert "points must be rationals like 3 or 1/2" in capsys.readouterr().err

    def test_point_count_mismatch(self):
        assert run(["verify", "--points", "1,2,3", "--sites", "2"]) == 2

    def test_unknown_suite(self):
        assert run(["verify", "--suite", "everything"]) == 2

    def test_out_of_range_sizes_are_usage_errors(self):
        # rejected with the other flags, not as internal errors further in
        assert run(["verify", "--sites", "0"]) == 2
        assert run(["verify", "--x-order", "-1"]) == 2

    def test_usage_error_writes_no_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "quadham", "--points=1,1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_negative_points_split_form(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "ybe", "--points", "-1,2", "--out", str(out)])
        assert code == 0
        assert load(out)["config"]["points"] == ["-1", "2"]

    def test_join_points_leaves_other_arguments(self):
        argv = ["verify", "--points", "-1/2,3", "--out", "-", "--points", "1,2"]
        assert cli.join_points(argv) == [
            "verify",
            "--points=-1/2,3",
            "--out",
            "-",
            "--points",
            "1,2",
        ]


class TestHamiltonians:
    def test_operators_commute_after_reload(self, tmp_path):
        out = tmp_path / "fam.json"
        code = run(
            ["hamiltonians", "--points", "1,3", "--m-max", "2", "--out", str(out)]
        )
        assert code == 0
        doc = load(out)
        ops = []
        for op in doc["operators"]:
            assert op["dim"] == 4
            entries = {
                (r, c): parse_rational(v) for r, c, v in op["entries"]
            }
            ops.append(entries)
        assert len(ops) >= 2
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                ab = sparse_matmul(ops[i], ops[j])
                ba = sparse_matmul(ops[j], ops[i])
                comm = sparse_add(ab, {k: -v for k, v in ba.items()})
                assert comm == {}

    def test_locations_are_json_friendly(self, tmp_path):
        out = tmp_path / "fam.json"
        assert run(["hamiltonians", "--out", str(out)]) == 0
        for op in load(out)["operators"]:
            kind = op["location"][0]
            assert kind in ("pole", "poly")

    def test_n3_m3_document_is_pinned(self, tmp_path):
        # the family document at N = 3, m <= 3: every operator of the
        # partial-fraction extraction, rendered over Q
        out = tmp_path / "fam.json"
        assert run(["hamiltonians", "--n", "3", "--m-max", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5401d2c179716d7dafbed7025b3af0ece802bc5cba4ffa12d7d818a461fa5912"
        )


class TestVerify:
    def test_ybe_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "ybe", "--out", str(out)])
        assert code == 0
        doc = load(out)
        assert doc["pass"] is True
        assert doc["suite"] == "ybe"
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_worker_count_does_not_change_bytes(self):
        parser = cli.build_parser()
        args = parser.parse_args(["verify", "--suite", "ybe"])
        cfg = cli.resolve_config(args)
        serial = report_bytes(run_suite("ybe", cfg, 1))
        parallel = report_bytes(run_suite("ybe", cfg, 2))
        assert serial == parallel

    def test_n3_m3_report_is_pinned(self, tmp_path):
        # a non-default size: the q-side products at N = 3, m = 3 beside
        # criterion 12's default report
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "all", "--n", "3", "--m-max", "3"]
        assert run(argv + ["--workers", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fcdd5de8f6879de3b912d5a31cc88dac21d84f69da09f360beb8a1c3e2a10846"
        )

    def test_n3_m5_report_is_pinned(self, tmp_path):
        # the q-side products up to m = 5 at N = 3, whose collapse terms
        # come from the kept Newton chain
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "all", "--n", "3", "--m-max", "5"]
        assert run(argv + ["--workers", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a7aaf31e4717e8aa2b41e4a700eea0251fa2e88d541a36c5a28b3c72a852e0ae"
        )

    def test_m6_report_is_pinned(self, tmp_path):
        # the default sites at the q-side cap: the only cheap report in
        # which mcal and mcal_collapsed reach m = Q_M_MAX, plain and twisted
        assert suites.Q_M_MAX == 6
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "all", "--m-max", "6"]
        assert run(argv + ["--workers", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8af64c3378ae1fdc9911275bd023ae8a9d56860614c03c066de600864777f1e6"
        )

    def test_qlimit_x16_report_is_pinned(self, tmp_path):
        # the central-term and normalizer checks at an x-order (and so an
        # eps-order) beyond the default 8
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "qlimit", "--x-order", "16"]
        assert run(argv + ["--workers", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9513135ca913967ddd5888ffa212a00efa4684e6fd875e0c3d100e97ee6d174a"
        )


class TestTimings:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_report_bytes_do_not_depend_on_timings(self, tmp_path, workers):
        plain, timed, lines = (tmp_path / n for n in ("a.json", "b.json", "t.jsonl"))
        argv = ["verify", "--suite", "ybe", "--workers", workers]
        assert run(argv + ["--out", str(plain)]) == 0
        assert run(argv + ["--out", str(timed), "--timings", str(lines)]) == 0
        assert plain.read_bytes() == timed.read_bytes()
        timings = [json.loads(line) for line in lines.read_text().splitlines()]
        checks = load(plain)["checks"]
        assert [(t["id"], t["status"]) for t in timings] == [
            (c["id"], c["status"]) for c in checks
        ]
        assert all(
            set(t) == {"id", "status", "cpu_s"} and t["cpu_s"] >= 0 for t in timings
        )


    def test_unwritable_outputs_are_usage_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        argv = ["verify", "--suite", "ybe"]
        assert run(argv + ["--out", str(missing / "r.json")]) == 2
        assert run(argv + ["--timings", str(missing / "t.jsonl")]) == 2
        assert capsys.readouterr().err.count("cannot write output") == 2


def _not_a_unit(*args, **kwargs):
    q = qside.QUV.gens[0]
    return qside.QUV.one / (q + qside.QUV.one), None


def _kill_worker(*args, **kwargs):
    os._exit(9)


class TestFailureIsolation:
    BAD = ("qside/bad", "repeated points", "task_rll", {"N": 2, "points": ["1", "1"]})
    GOOD = ("trace/one-leg", "one-leg trace", "task_trace_one_leg", {"N": 2})

    def test_raising_task_is_recorded_as_error(self):
        serial = run_tasks([self.BAD, self.GOOD], 1)
        assert serial[0]["status"] == "error"
        assert serial[0]["witness"] == {
            "type": "ValueError",
            "message": "evaluation points must be pairwise distinct",
        }
        assert serial[1]["status"] == "pass"
        assert run_tasks([self.BAD, self.GOOD], 2) == serial

    def test_verify_task_error_exits_3_with_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(suites, "task_classical_ybe", _not_a_unit)
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "ybe", "--out", str(out)]) == 3
        doc = load(out)
        assert doc["pass"] is False
        errors = [c for c in doc["checks"] if c["status"] == "error"]
        assert errors and all(
            c["witness"]["type"] == "ArithmeticError" for c in errors
        )
        assert any(c["status"] == "pass" for c in doc["checks"])

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the monkeypatched task only when forked",
    )
    def test_dead_worker_is_recorded_as_error(self, tmp_path, monkeypatch):
        # the task that kills its worker breaks the pool; every other task
        # still gets its own record and the report is written
        monkeypatch.setattr(suites, "task_skew_symmetry", _kill_worker)
        records = run_tasks(suites.build_tasks("ybe", {"N": 2}), workers=2)
        assert [r["status"] for r in records] == ["pass", "error", "pass"]
        assert records[1]["witness"]["type"] == "BrokenProcessPool"
        timings = [t for _, t in suites.run_timed(suites.build_tasks("ybe", {"N": 2}), 2)]
        assert timings[1] is None
        assert timings[0] >= 0 and timings[2] >= 0
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "ybe", "--workers", "2", "--out", str(out)])
        assert code == 3
        assert load(out)["checks"] == records

    def test_internal_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gaudin, "extract_family", _not_a_unit)
        out = tmp_path / "family.json"
        assert run(["hamiltonians", "--out", str(out)]) == 3
        assert not out.exists()


def _src_env():
    """The environment with the package's source tree on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestSwappedTraceTables:
    def test_report_fails_where_the_routes_cannot_see_it(self, tmp_path):
        # negative control on the whole report: the traced product handed
        # the kept table as the traced one, in a fresh process so that no
        # kept chain of a sound run is reused.  The closed forms and the
        # q-side oracle fail; the theta routes, the family commutators and
        # the classical limit compare two sides that end in the same
        # traced product, so they still pass (a check that comes to see
        # this fault should move out of ``blind`` here)
        code = (
            "import sys\n"
            "from triggaudin import cli, kernels, tensor\n"
            "def swapped(products, traced, kept):\n"
            "    return kernels.sparse_matmul_trace(products, kept, traced)\n"
            "tensor.sparse_matmul_trace = swapped\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "all", "--workers", "1", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=_src_env(),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        status = {c["id"]: c["status"] for c in load(out)["checks"]}
        failed = {i for i, s in status.items() if s != "pass"}
        assert {"theta/explicit-m1", "theta/explicit-m2"} <= failed
        assert "qside/product-oracle-m1" in failed
        blind = [
            i
            for i in status
            if i.startswith(("theta/routes-", "commut/", "qlimit/match-"))
        ]
        assert len(blind) == 11 and not failed & set(blind)


class TestModuleEntryPoint:
    def test_python_m_runs_a_suite(self, tmp_path):
        out = tmp_path / "report.json"
        env = _src_env()
        proc = subprocess.run(
            [sys.executable, "-m", "triggaudin", "verify", "--suite", "ybe",
             "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert load(out)["pass"] is True

    def test_start_up_loads_no_process_pool(self):
        # the pool's modules are imported only when a run asks for two
        # or more workers
        code = (
            "import sys, triggaudin.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=_src_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]


class TestQlimit:
    def test_report_carries_note(self, tmp_path):
        out = tmp_path / "qlimit.json"
        code = run(["qlimit", "--m-max", "1", "--out", str(out)])
        assert code == 0
        doc = load(out)
        assert doc["pass"] is True
        assert "note" in doc

    def test_config_timings_are_written(self, tmp_path):
        lines = tmp_path / "t.jsonl"
        config = tmp_path / "q.cfg"
        config.write_text("timings = %s\n" % lines, encoding="utf-8")
        out = tmp_path / "qlimit.json"
        argv = ["qlimit", "--config", str(config), "--m-max", "1", "--out", str(out)]
        assert run(argv) == 0
        timings = [json.loads(line) for line in lines.read_text().splitlines()]
        assert [t["id"] for t in timings] == [c["id"] for c in load(out)["checks"]]
        assert len(timings) == 8

    def test_m_max_bound(self, tmp_path):
        out = tmp_path / "qlimit.json"
        for m in ("7", "0", "-1"):
            assert run(["qlimit", "--m-max", m, "--out", str(out)]) == 2
            assert not out.exists()

    def test_q_side_cap_lists_m6(self):
        # the one q-side cap reaches both suites; m = 6 is listed, not run
        args = cli.build_parser().parse_args(["verify", "--m-max", "7"])
        ids = [t[0] for t in suites.build_tasks("all", cli.resolve_config(args))]
        for prefix in ("qside/product-oracle-m", "qlimit/match-m"):
            for twist in ("", "-twisted"):
                assert prefix + "%d%s" % (suites.Q_M_MAX, twist) in ids
                assert prefix + "%d%s" % (suites.Q_M_MAX + 1, twist) not in ids
        assert suites.Q_M_MAX == 6

    def test_m_max_sets_the_orders(self, tmp_path):
        out = tmp_path / "qlimit.json"
        assert run(["qlimit", "--m-max", "3", "--out", str(out)]) == 0
        doc = load(out)
        assert doc["config"]["m_max"] == 3
        matches = sorted(c["id"] for c in doc["checks"] if c["id"].startswith("qlimit/match"))
        assert matches == [
            "qlimit/match-m%d%s" % (m, tw) for m in (1, 2, 3) for tw in ("", "-twisted")
        ]
