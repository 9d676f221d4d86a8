"""Layering guard: no module of the package imports one above it.

The order is qcore < {noise, purify, qnn} < sdc < capacity < harness < cli;
modules on the same level may not import each other either. Imports inside
functions count, so a cycle cannot hide behind a local import. Every name a
module imports is used there, so a move leaves no stale import behind, and
every name the package exports is used by a module or a demo, so the public
API holds nothing that only the tests call.
"""

import ast
import pathlib
import types

import pytest

import ghzsdc

PACKAGE_DIR = pathlib.Path(ghzsdc.__file__).parent
DEMOS_DIR = pathlib.Path(__file__).resolve().parents[1] / "demos"

LEVEL = {
    "qcore": 0,
    "noise": 1,
    "sdc": 2,
    "capacity": 3,
    "purify": 1,
    "qnn": 1,
    "harness": 4,
    "cli": 5,
}


def imported_modules(path):
    """Package modules imported anywhere in the file at `path`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "ghzsdc":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ghzsdc" and len(parts) > 1:
                    found.add(parts[1])
    return found & set(LEVEL)


def test_every_module_has_a_level():
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(LEVEL)


@pytest.mark.parametrize("module", sorted(LEVEL))
def test_imports_only_lower_levels(module):
    imports = imported_modules(PACKAGE_DIR / f"{module}.py")
    upward = sorted(m for m in imports if LEVEL[m] >= LEVEL[module] and m != module)
    assert not upward, f"{module} imports {upward} at or above its own level"


def test_no_function_local_imports():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not local, f"{path.name}:{local[0].lineno} imports inside {fn.name}"


def test_no_unused_imports():
    # __init__ imports only to re-export
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted((line, name) for name, line in bound.items() if name not in used)
        assert not unused, f"{path.name} imports but never uses {unused}"


def test_every_export_is_used_by_the_package_or_a_demo():
    # __init__ only re-exports; the submodules in __all__ are modules, not API
    paths = [p for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"] + sorted(DEMOS_DIR.glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = [name for name in ghzsdc.__all__ if not isinstance(getattr(ghzsdc, name), types.ModuleType)]
    unused = sorted(name for name in exported if name not in used)
    assert not unused, f"ghzsdc exports {unused}, which no module or demo uses"
