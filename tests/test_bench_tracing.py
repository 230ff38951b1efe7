"""The benchmark must keep working against the package.

The names that the benchmark's per-layer tracing wraps must exist in
asepx: `bench/tracing.py` reports a name it cannot resolve as a metric
of 0, so a rename or deletion in the package would otherwise pass
unnoticed.  The tables are read from the file's source, without
importing the harness.  The benchmark's own self-tests
(`bench/test_checks.py`), which also assert what the package caches,
run in a subprocess.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


TRACED = [(row[1], row[2]) for row in _table("SPANS") + _table("CACHES")]


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}:{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    obj = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)
    assert callable(obj)


def test_benchmark_self_tests_pass():
    bench = TRACING.parent
    done = subprocess.run(
        [sys.executable, str(bench / "test_checks.py")],
        cwd=bench.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
