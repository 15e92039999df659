"""Import layering: each module imports only from the modules below it."""

import ast
from pathlib import Path

import cuspdiff

LAYERS = ["exactpoly", "skewlaurent", "gwa", "cuspops", "modactions",
          "classify", "exprparse", "cli"]

# gwa.presentation_from_json parses base polynomials with exprparse, which
# sits above it; the import is inside the function, so it runs only then
ALLOWED_UPWARD = {("gwa", "exprparse", "presentation_from_json")}

PACKAGE = Path(cuspdiff.__file__).resolve().parent


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
