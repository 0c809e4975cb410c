"""Every module-level private function or class of the package is read.

A ``_private`` definition that no code in the package reads is either
dead or kept only for the tests; the latter belongs in ``tests/helpers.py``
as an oracle, not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toeplitz_spectra"


def _private_and_reads():
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return defined, read


def test_private_definitions_are_read():
    defined, read = _private_and_reads()
    assert defined
    unread = sorted(f"{mod}:{name}" for name, mod in defined.items()
                    if name not in read)
    assert unread == []
