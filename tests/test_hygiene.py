"""Source hygiene: every name a module imports is referenced in that module,
every module-level private function or class is referenced somewhere, every
solver option is read by the package, and every field of a result or config
class is read by the package, the benchmark or (for the checks' results) the
tests.

No lint tool is part of the toolchain, so this walks each module's syntax
tree. ``from __future__`` imports and names re-exported through ``__all__``
are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semrd"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.exp starts at a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def referenced_names(paths) -> set[str]:
    """Every identifier read as a name, an attribute or an imported name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_definitions(src: Path, roots) -> list[str]:
    used = referenced_names(p for root in roots for p in sorted(root.rglob("*.py")))
    return sorted(
        f"{path.name}: {node.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    )


def test_private_definitions_referenced():
    roots = (ROOT / "src", ROOT / "tests", ROOT / "bench")
    assert unreferenced_private_definitions(SRC, roots) == []


def unread_fields(module: str, class_name: str, paths) -> tuple[set[str], list[str]]:
    """(fields, unread): the annotated fields of the class ``class_name`` in
    the package module ``module``, and those never read as an attribute in
    ``paths`` outside that class's own body.

    Reads are matched by attribute name alone: a same-named attribute read
    anywhere in ``paths``, on any object, counts as a read of the field."""
    source = SRC / module
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (cls,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name)
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    inside = {id(n) for n in ast.walk(cls)}
    read = {
        node.attr
        for path in paths
        for node in ast.walk(tree if path == source
                             else ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in inside
    }
    return fields, sorted(fields - read)


def test_solver_options_read():
    # an option nothing reads is a setting that silently does nothing; the
    # tolerances are constants, so max_iters is the one option
    fields, unread = unread_fields("solver.py", "SolverOptions", sorted(SRC.glob("*.py")))
    assert fields == {"max_iters"}
    assert unread == []


# each result or config class, with the package module that defines it and
# the directories whose reads count: the solver's results and the sweep
# config are read by the package and the benchmark, the achievability and
# Gaussian results also by the tests that assert them
PACKAGE_AND_BENCH = ("src", "bench")
WITH_TESTS = ("src", "bench", "tests")
RESULT_CLASSES = {
    "RDPoint": ("solver.py", PACKAGE_AND_BENCH),
    "SurfaceCell": ("solver.py", PACKAGE_AND_BENCH),
    "RDSurface": ("solver.py", PACKAGE_AND_BENCH),
    "Row": ("models.py", PACKAGE_AND_BENCH),
    "SweepConfig": ("config.py", PACKAGE_AND_BENCH),
    "CorrelatedBinaryChannel": ("test_channels.py", WITH_TESTS),
    "ClassificationChannel": ("test_channels.py", WITH_TESTS),
    "AchievabilityReport": ("test_channels.py", WITH_TESTS),
    "GaussianRDResult": ("gaussian.py", WITH_TESTS),
    "MonteCarloCase": ("gaussian.py", WITH_TESTS),
    "MonteCarloReport": ("gaussian.py", WITH_TESTS),
}


@pytest.mark.parametrize("class_name", RESULT_CLASSES)
def test_result_fields_read(class_name):
    # a field that nothing reads is carried for nothing
    module, roots = RESULT_CLASSES[class_name]
    paths = [p for root in roots for p in sorted((ROOT / root).rglob("*.py"))]
    fields, unread = unread_fields(module, class_name, paths)
    assert fields
    assert unread == []


def isfinite_callers(paths) -> list[str]:
    """Modules that call ``math.isfinite`` or import it from ``math``."""
    callers = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                    and isinstance(node.value, ast.Name) and node.value.id == "math") or (
                    isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(alias.name == "isfinite" for alias in node.names)):
                callers.append(path.name)
                break
    return callers


def test_only_prob_tests_finiteness():
    # the number rule lives in prob.check_real and check_int; a module that
    # tests a scalar for finiteness itself has copied the rule
    assert isfinite_callers(sorted(SRC.glob("*.py"))) == ["prob.py"]
