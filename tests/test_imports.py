"""Every name a module imports is used in that module.

A stdlib `ast` scan over `src/asepx` and `tests`; the package
`__init__.py` files are exempt, because their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in (ROOT / "src" / "asepx", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a string annotation such as `-> "SectorVector"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {
            sub.id
            for sub in ast.walk(ast.parse(node.value, mode="eval"))
            if isinstance(sub, ast.Name)
        }
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "import json\nimport os.path\nfrom fractions import Fraction as F\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]') -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["F", "json"]
