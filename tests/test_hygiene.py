"""Source hygiene: every name a module imports is referenced in that module.

No lint tool is part of the toolchain, so this walks each module's syntax
tree. ``from __future__`` imports and names re-exported through ``__all__``
are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semrd"


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
