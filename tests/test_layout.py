"""Module layout: an ahilb module uses only the public names of another."""

import ast
from pathlib import Path

import ahilb

PACKAGE = Path(ahilb.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that path imports from other ahilb
    modules, at any nesting level."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and node.module.startswith("ahilb."):
            source = node.module[len("ahilb."):]
        else:
            continue
        if source == path.stem:
            continue
        out += [f"{path.stem} <- {source}.{alias.name}"
                for alias in node.names if alias.name.startswith("_")]
    return out


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _private_imports(path)
    assert found == []
