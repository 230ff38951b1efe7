"""Every name a module imports is used in that module, every
module-level function, class and method of the package is used in it,
and every package module imports only the modules it may.

Stdlib `ast` scans.  The import scan covers `src/asepx` and `tests`; the
package `__init__.py` files are exempt, because their imports are
re-exports.  The definition scan covers `src/asepx`, where an
`__init__.py` re-export counts as a use, and reads `bench/*.py` as users
only: what the benchmark calls is used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asepx"
MODULES = [
    path
    for folder in (PACKAGE, ROOT / "tests")
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


def _used_names(node: ast.AST, enclosing: frozenset = frozenset()) -> set[str]:
    """The names, attributes, names imported from a module and names in
    string annotations under `node`, leaving out each use of a name inside
    a function of that same name: that is delegation, not a use."""
    if isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        names = {a.name for a in node.names}
    elif isinstance(node, ast.arg):
        names = _annotation_names(node.annotation)
    elif isinstance(node, ast.FunctionDef):
        enclosing |= {node.name}
        names = _annotation_names(node.returns)
    else:
        names = set()
    names -= enclosing
    for child in ast.iter_child_nodes(node):
        names |= _used_names(child, enclosing)
    return names


def unused_definitions(sources: dict[str, str], users: tuple[str, ...] = ()) -> list[str]:
    """Module-level functions and classes, and the non-dunder methods of
    those classes, whose name no module in `sources` or `users` uses.

    `users` are scanned for uses only, never for definitions.  A method is
    matched by its name alone; a use of a name inside a function of that
    name does not count (`_used_names`).
    """
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{module}:{node.name}"))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        defined.append((sub.name, f"{module}:{node.name}.{sub.name}"))
        used |= _used_names(tree)
    for source in users:
        used |= _used_names(ast.parse(source))
    return sorted(where for name, where in defined if name not in used)


def test_every_package_definition_is_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = tuple(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    assert unused_definitions(sources, bench) == []


def test_scan_flags_an_unused_definition():
    sources = {
        "__init__": "from .core import exported\n",
        "core": (
            "def exported():\n    return helper(), Ratio()\n"
            "def helper():\n    return Box().size()\n"
            "def dead():\n    return 0\n"
            "class Box:\n"
            "    def __repr__(self):\n        return ''\n"
            "    def size(self):\n        return 1\n"
            "    def word_for(self, mode):\n        return ()\n"
            "    def eval(self, t):\n        return t\n"
            "class Ratio:\n"
            "    def eval(self, t):\n        return self.num.eval(t)\n"
        ),
    }
    # Ratio.eval only delegates to Box.eval, so neither is used
    assert unused_definitions(sources) == [
        "core:Box.eval", "core:Box.word_for", "core:Ratio.eval", "core:dead"
    ]
    # a caller outside the package uses eval and defines nothing
    bench = ("def timed():\n    return Box().eval(2)\n",)
    assert unused_definitions(sources, bench) == ["core:Box.word_for", "core:dead"]


# the package modules each module imports: the three stationary
# constructions (kernel in asep_core, queues in mlq, traces in ctm) share
# only asep_core and scalar, so each stays an oracle for the others; the
# identity ladder reads all three, and the CLI reads every layer
PACKAGE_IMPORTS = {
    "scalar": set(),
    "asep_core": {"scalar"},
    "oscillator": {"scalar"},
    "mlq": {"asep_core", "scalar"},
    "ctm": {"asep_core", "oscillator", "scalar"},
    "algebra_checks": {"asep_core", "ctm", "mlq", "oscillator", "scalar"},
    "cli": {"algebra_checks", "asep_core", "ctm", "mlq", "oscillator", "scalar"},
    "__main__": {"cli"},
}


def package_imports(source: str) -> set[str]:
    """The sibling modules a package module imports by relative imports."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out |= {a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", list(PACKAGE_IMPORTS))
def test_core_modules_import_only_their_layers(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert package_imports(source) == PACKAGE_IMPORTS[module]


def test_scan_reads_relative_imports():
    source = "from .scalar import P\nfrom . import mlq\nfrom fractions import Fraction\n"
    assert package_imports(source) == {"scalar", "mlq"}
