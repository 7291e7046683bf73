"""Dead code in the package, found from the syntax tree alone.

A module under ``src/sepproj/`` (other than ``__init__.py``, which imports to
re-export) must use every name it imports, and every module-level
``_private`` function must be referenced somewhere in ``src/``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in (SRC / "sepproj").glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set[str]:
    # a name counts as used when it is loaded, or is the root of an attribute
    # chain (``np.linalg`` uses ``np``)
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(tree: ast.Module) -> set[str]:
    return _imported_names(tree) - _used_names(tree)


def unreferenced_private_functions(trees: dict[str, ast.Module]) -> set[str]:
    defined = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return {f"{mod}.{name}" for mod, name in defined if name not in referenced}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(_tree(path)) == set()


def test_every_private_function_is_referenced():
    trees = {p.stem: _tree(p) for p in SRC.rglob("*.py")}
    assert unreferenced_private_functions(trees) == set()


def test_detector_flags_leftovers():
    # an import that only its own statement names, and a private helper that
    # no other code calls, are both reported
    tree = ast.parse(
        "from .config import GEOM_TOL, LP_TOL\n"
        "from .geometry import Flat, intersect_flats\n"
        "def _intersection_point(f1: Flat, f2: Flat):\n"
        "    return intersect_flats(f1, f2)\n"
        "def public(x):\n"
        "    return x + LP_TOL\n"
    )
    assert unused_imports(tree) == {"GEOM_TOL"}
    assert unreferenced_private_functions({"synthesis": tree}) == {
        "synthesis._intersection_point"}
