"""Repository checks that need no benchmark run and no second interpreter."""

import ast
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import effectaudit
from effectaudit import cli, pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "effectaudit")
SOURCES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def load_spans():
    """Import benchmarks/spans.py as a standalone module, without running anything."""
    spec = importlib.util.spec_from_file_location(
        "_bench_spans", os.path.join(ROOT, "benchmarks", "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_by_cli_or_pipeline():
    # The tracer wraps only what effectaudit.cli and effectaudit.pipeline bind;
    # an unbound name silently drops its per-layer metric from a traced run.
    spans = load_spans()
    unbound = [
        f"{layer}.{name}"
        for layer, names in spans.WRAPPED.items()
        for name in names
        if not (hasattr(cli, name) or hasattr(pipeline, name))
    ]
    assert unbound == []


def test_package_all_names_resolve_once():
    # a name left in __all__ after its definition is deleted breaks "import *"
    names = effectaudit.__all__
    assert [name for name in names if not hasattr(effectaudit, name)] == []
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


@pytest.mark.parametrize("name", SOURCES)
def test_source_parses_as_python_3_10(name):
    # requires-python is >=3.10; this catches 3.11+ syntax without a 3.10 interpreter.
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=name, feature_version=(3, 10))


def _is_file_read(node: ast.AST) -> bool:
    """A call of open, or of a Path's read_bytes or read_text."""
    func = getattr(node, "func", None)
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return isinstance(node, ast.Call) and name in ("open", "read_bytes", "read_text")


READ_INPUT = "pipeline.py:_read_input"


def test_src_reads_files_only_through_read_input():
    # pipeline._read_input refuses a file over its format's cap before reading
    # it; a loader that opened its file elsewhere would skip that rule.
    inside, outside = [], []
    for name in SOURCES:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = {
            id(call)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and f"{name}:{node.name}" == READ_INPUT
            for call in ast.walk(node)
        }
        for node in filter(_is_file_read, ast.walk(tree)):
            (inside if id(node) in allowed else outside).append(f"{name}:{node.lineno}")
    assert outside == [] and len(inside) == 1, (inside, outside)


def test_report_writes_json_only_through_its_own_writer():
    # report._write_json is the one JSON writer; json.dumps, called or passed
    # on, would be a second one that could write what _write_json refuses.
    with open(os.path.join(SRC, "report.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    dumps = [
        node.lineno
        for node in ast.walk(tree)
        if "dumps" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert dumps == []


def _strict_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def test_traced_benchmark_run_ends_with_a_result_holding_every_layer_metric():
    # A traced run that exits 0 but drops a per-layer metric, or whose last
    # line is not a result, cannot be compared against another commit.
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "run.py"), "--workload", "all",
         "--seed", "1", "--tiny", "--trace", "1", "--seconds", "0.3"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_strict_constant)
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["per_layer"]}
    assert set(result["metrics"]) == declared
    # every workload runs audits, and each audit's rank decision is its own span
    for workload in spec["workloads"]:
        assert result["metrics"][f"{workload['name']}.finite_sample.svd_s"]["value"] > 0
