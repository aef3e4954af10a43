"""Smoke tests for the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q

They run every workload at tiny sizes, check that each metric named in
BENCHMARK.json is emitted with its unit, and check that the response checker
rejects corrupted responses.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from effectaudit import cli  # noqa: E402
from effectaudit.report import parse_report, render_report  # noqa: E402


def _bench(*args: str) -> tuple[list[str], dict]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, out.stdout + out.stderr
    return lines, json.loads(lines[-1])


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert _declared("end_to_end") == run.E2E_UNITS
    assert _declared("per_layer") == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    for name in workloads.WORKLOADS:
        lines, result = _bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                               "--trace", str(trace), "--tiny")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == _declared(kind)
        for metric, unit in got.items():
            assert any(line.split()[1:2] == [metric] and line.split()[-1] == unit
                       for line in lines), metric
        details = json.loads(lines[-2])["details"][name]
        if trace:
            assert details["traced_digests"] == details["pass_digests"] == [details["digest"]]
            assert result["metrics"]["linalg.eig_calls_per_audit"]["value"] == 5


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "screen",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def _respond(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check(req: dict, code: int, out: str) -> str | None:
    return checker.check_response(req, code, out, 4.0, (parse_report, render_report))


def test_checker_accepts_and_rejects():
    feasible = {"cmd": "check-claims", "argv": ["check-claims", "--tau", "0.3", "--p", "12",
                                                "--format", "json"],
                "expect": {"feasible": True}}
    code, out = _respond(feasible["argv"])
    assert _check(feasible, code, out) is None

    assert "strict JSON" in _check(feasible, code, out.replace('"cross_mass": 0.96', '"cross_mass": NaN'))
    assert "exit code 2" in _check(feasible, 2, out)
    assert "does not match verdict" in _check(feasible, 1, out)
    assert "expected False" in _check({**feasible, "expect": {"feasible": False}}, code, out)
    assert "differs" in _check(feasible, code, out.replace("\n", " ", 1))


def test_checker_matches_closed_form_claims(tmp_path):
    rng = np.random.default_rng(0)
    for k in range(30):
        req = workloads._claims(str(tmp_path), k, k % 2 == 0, True, 2 + k, rng)
        assert _check(req, *_respond(req["argv"])) is None, req


def test_checker_flags_a_monte_carlo_miss():
    req = workloads._sphere(11, 5, 1000, 7)
    code, out = _respond(req["argv"])
    assert _check(req, code, out) is None
    doc = json.loads(out)
    doc["sphere"]["mc"]["mean"] = 5 / 10 + 10 * doc["sphere"]["mc"]["stderr"]
    assert "stderr from p/(n-1)" in checker.check_response(req, code, json.dumps(doc))
    assert checker.mc_z_limit(1) == pytest.approx(4.0)


def test_recorder_skips_missing_names_and_restores(monkeypatch):
    monkeypatch.setitem(spans.WRAPPED, "pipeline", spans.WRAPPED["pipeline"] + ["no_such_name"])
    originals = (cli.main, cli.render_report, np.linalg.eigh, np.linalg.eigvalsh)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert cli.main is not originals[0]
        rec.request = 0
        _respond(["tightness", "--p", "10", "--tau", "0.3", "--format", "json"])
    finally:
        rec.restore()
    assert (cli.main, cli.render_report, np.linalg.eigh, np.linalg.eigvalsh) == originals
    assert "pipeline.no_such_name" not in rec.wrapped
    names = [s[0] for s in rec.spans]
    assert names[0] == "cli.main" and "report.render_report" in names
    metrics = spans.layer_metrics(rec, {0: 0}, {0: "tightness"})
    assert metrics["report.bytes_out"] > 0 and "linalg.eig_calls_per_audit" not in metrics
