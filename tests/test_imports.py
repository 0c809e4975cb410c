"""Every module of the package and of the tests reads the names it imports.

An import that nothing references is left over from code that went away;
it should go with that code.  A package ``__init__`` re-exports through
``__all__``, which counts as a reference.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [f"{path.relative_to(ROOT)}:{line}:{name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_imports_are_read():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    assert paths
    unused = [u for path in paths for u in _unused_imports(path)]
    assert unused == []
