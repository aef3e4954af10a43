"""Repository checks that need no benchmark run and no second interpreter."""

import ast
import importlib.util
import os

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
