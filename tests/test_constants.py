"""Every module-level UPPER_CASE constant of the package is used.

A constant that only its own assignment names is a tolerance or knob that
no code reads any more; it should go with the code that read it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toeplitz_spectra"


def _constants_and_uses():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    defined[t.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_constants_are_read():
    defined, used = _constants_and_uses()
    assert defined
    unused = sorted(f"{mod}:{name}" for name, mod in defined.items()
                    if name not in used)
    assert unused == []
