"""Every module of the package and of the tests reads the names it imports.

An import that nothing references is left over from code that went away;
it should go with that code.  A package ``__init__`` re-exports through
``__all__``, which counts as a reference.  A dotted ``import a.b`` counts
as read only where the attribute chain ``a.b`` (or a longer one through
it) is referenced: using ``a.c`` alone does not read it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _chain(node) -> str | None:
    """``"a.b.c"`` for the attribute chain a.b.c on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    # every chain's prefixes are Attribute (or Name) nodes of their own
    used = {_chain(node) for node in ast.walk(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [(line, name) for name, line in sorted(imported.items())
            if name not in used]


def test_imports_are_read():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    assert paths
    unused = [f"{path.relative_to(ROOT)}:{line}:{name}" for path in paths
              for line, name in _unused_imports(path.read_text())]
    assert unused == []


def test_dotted_import_needs_its_own_chain():
    source = ("import scipy.linalg\n"
              "import scipy.optimize\n"
              "import scipy.linalg.blas\n"
              "import numpy as np\n"
              "import os.path as osp\n"
              "scipy.linalg.blas.ztbsv\n")
    assert _unused_imports(source) == [(4, "np"), (5, "osp"),
                                       (2, "scipy.optimize")]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []
    assert _unused_imports("import os.path\nos.sep\n") == [(1, "os.path")]
