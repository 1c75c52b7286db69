"""Command-line surface: config resolution, reports, exit codes."""

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
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "ybe", "--workers", "2", "--out", str(out)])
        assert code == 3
        assert load(out)["checks"] == records

    def test_internal_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gaudin, "extract_family", _not_a_unit)
        out = tmp_path / "family.json"
        assert run(["hamiltonians", "--out", str(out)]) == 3
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_m_runs_a_suite(self, tmp_path):
        out = tmp_path / "report.json"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "triggaudin", "verify", "--suite", "ybe",
             "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert load(out)["pass"] is True


class TestQlimit:
    def test_report_carries_note(self, tmp_path):
        out = tmp_path / "qlimit.json"
        code = run(["qlimit", "--m", "1", "--out", str(out)])
        assert code == 0
        doc = load(out)
        assert doc["pass"] is True
        assert "note" in doc

    def test_m_bound(self, tmp_path):
        out = tmp_path / "qlimit.json"
        for m in ("5", "0", "-1"):
            assert run(["qlimit", "--m", m, "--out", str(out)]) == 2
            assert not out.exists()
