"""Module layering of the cmlab package, read from the source with ``ast``:
every import sits at module level, and each module imports only modules
below it in the layer order (the package ``__init__`` re-exports them all
and is exempt).  The same reading checks that the shared boosted contexts
stay unmutated: only ``PrecisionContext.__init__`` sets a context's
precision, and only ``precision`` and ``cli`` build contexts.  A module's
fill lock (a module-level ``threading.Lock()``) stays its own: no other
module names it, so a table is filled only by the module that owns it.
Every public function, and every public method and property of an
exported class, has a caller outside the tests: no public API that only
its own test uses.  No module imports from ``mpmath.calculus``."""

import ast
import inspect
from pathlib import Path

import pytest

import cmlab

SRC = Path(__file__).resolve().parent.parent / "src" / "cmlab"
DEMOS = SRC.parent.parent / "demos"

LAYERS = (
    "errors",
    "precision",
    "combinatorics",
    "gammakit",
    "remainders",
    "kernels",
    "nodes",
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


@pytest.mark.parametrize("name", LAYERS + ("__init__",))
def test_no_import_from_mpmath_calculus(name):
    # nodes makes quadrature's Gauss-Legendre and Gauss-Kronrod rules;
    # mpmath's quadrature classes serve the tests only, as an oracle
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            found += [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
    bad = [m for m in found if m == "mpmath.calculus" or m.startswith("mpmath.calculus.")]
    assert not bad, "%s imports %s" % (name, bad)


def _fill_locks(tree):
    """Names bound at module level to ``threading.Lock()``."""
    found = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "Lock"
        ):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return found


LOCKS = {name: _fill_locks(_tree(name)) for name in LAYERS}


def test_fill_locks_are_found():
    assert LOCKS["combinatorics"] == {"_BERNOULLI_FILL"}
    assert LOCKS["gammakit"] == {"_FILL"}


@pytest.mark.parametrize("name", LAYERS + ("__init__",))
def test_no_module_names_another_modules_fill_lock(name):
    others = set().union(*(locks for owner, locks in LOCKS.items() if owner != name))
    named = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & others, "%s names %s" % (name, sorted(named & others))


def _precision_setters(tree):
    """Assignments to ``<x>._mp.prec`` or ``<x>._mp.dps`` outside
    ``PrecisionContext.__init__``, as source lines."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PrecisionContext":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    exempt.update(id(n) for n in ast.walk(item))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in ("prec", "dps")
                    and isinstance(sub.value, ast.Attribute)
                    and sub.value.attr == "_mp"
                ):
                    found.append(node.lineno)
    return found


def _context_constructions(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "PrecisionContext":
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("name", LAYERS + ("__init__",))
def test_no_context_precision_is_set_after_construction(name):
    lines = _precision_setters(_tree(name))
    assert not lines, "%s sets a context's precision at lines %s" % (name, lines)


@pytest.mark.parametrize("name", LAYERS + ("__init__",))
def test_only_precision_and_cli_build_contexts(name):
    lines = _context_constructions(_tree(name))
    if name not in ("precision", "cli"):
        assert not lines, "%s builds a PrecisionContext at lines %s" % (name, lines)


def _references(path):
    """Names used in the file at ``path``, as Names or Attributes, outside
    the body of the function that each name defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                own.setdefault(id(sub), set()).add(node.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name not in own.get(id(node), ()):
            found.add(name)
    return found


PUBLIC_FUNCTIONS = sorted(
    name for name in cmlab.__all__ if inspect.isfunction(getattr(cmlab, name))
)


PUBLIC_MEMBERS = sorted(
    (cls, attr)
    for cls in cmlab.__all__
    if inspect.isclass(getattr(cmlab, cls))
    for attr, value in vars(getattr(cmlab, cls)).items()
    if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))
)


def _used_outside_the_tests():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted(DEMOS.glob("*.py"))
    return set().union(*(_references(p) for p in files))


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _used_outside_the_tests()
    unused = [name for name in PUBLIC_FUNCTIONS if name not in used]
    assert not unused, "only the tests call %s" % unused


def test_public_members_are_found():
    assert ("PrecisionContext", "boosted") in PUBLIC_MEMBERS
    assert ("PrecisionContext", "prec") in PUBLIC_MEMBERS
    assert ("DegreeBracket", "width") in PUBLIC_MEMBERS


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    # by name, as a Name or an Attribute; a method's references inside its
    # own body do not count
    used = _used_outside_the_tests()
    unused = ["%s.%s" % member for member in PUBLIC_MEMBERS if member[1] not in used]
    assert not unused, "only the tests call %s" % unused
