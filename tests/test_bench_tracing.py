"""The names that the benchmark's per-layer tracing wraps must exist in asepx.

`bench/tracing.py` reports a name it cannot resolve as a metric of 0, so
a rename or deletion in the package would otherwise pass unnoticed.  The
tables are read from the file's source, without importing the harness.
"""

import ast
import importlib
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
