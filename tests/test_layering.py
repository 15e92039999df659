"""Import layering: each module imports only from the modules below it.

The public surface holds only what something outside the unit tests reaches:
another library module, the bench, the acceptance criteria or the README.
"""

import ast
import re
from pathlib import Path

import cuspdiff

LAYERS = ["exactpoly", "skewlaurent", "gwa", "cuspops", "modactions",
          "classify", "exprparse", "cli"]

ALLOWED_UPWARD = set()

PACKAGE = Path(cuspdiff.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def _relative_imports(module):
    """(target module, enclosing function or None) for each relative import."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                if child.module:
                    found.append((child.module.split(".")[0], func))
                else:
                    found.extend((alias.name, func) for alias in child.names)
            visit(child, func)

    visit(tree, None)
    return found


def test_every_module_is_layered():
    on_disk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert on_disk == set(LAYERS)


def test_imports_point_down():
    upward = set()
    for rank, module in enumerate(LAYERS):
        for target, func in _relative_imports(module):
            assert target in LAYERS, (module, target)
            if LAYERS.index(target) >= rank:
                upward.add((module, target, func))
    assert upward == ALLOWED_UPWARD


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references(path):
    """Names a file reads, each outside the def or class that defines it."""
    used = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = enclosing | {child.name}
            if isinstance(child, ast.Name) and child.id not in inner:
                used.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in inner:
                used.add(child.attr)
            visit(child, inner)

    visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_export_is_reached():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    sources.append(ROOT / "tests" / "test_acceptance.py")
    reached = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sources:
        reached |= _references(path)
    assert sorted(_exports() - reached) == []
