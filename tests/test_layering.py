"""Module layering of the cmlab package, read from the source with ``ast``:
every import sits at module level, and each module imports only modules
below it in the layer order (the package ``__init__`` re-exports them all
and is exempt)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmlab"

LAYERS = (
    "errors",
    "precision",
    "combinatorics",
    "gammakit",
    "remainders",
    "kernels",
    "quadrature",
    "cmdegree",
    "verify",
    "cli",
)


def _tree(name):
    return ast.parse((SRC / ("%s.py" % name)).read_text(encoding="utf-8"))


def _package_imports(tree):
    """Names of the cmlab modules imported anywhere in ``tree``, whether
    relatively (``from .x import y``, ``from . import x``) or absolutely."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "cmlab" and not module.startswith("cmlab."):
                    continue
                module = module[len("cmlab") :].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cmlab" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_layer_list_covers_the_package():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_lower_layers(name):
    lower = set(LAYERS[: LAYERS.index(name)])
    imported = _package_imports(_tree(name))
    assert imported <= lower, "%s imports %s" % (name, sorted(imported - lower))


@pytest.mark.parametrize("name", LAYERS + ("__init__",))
def test_no_import_inside_a_function(name):
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = [
                n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
            ]
            assert not inner, "%s imports inside %s" % (name, getattr(node, "name", "lambda"))
