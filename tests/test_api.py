"""Every public name must have a caller inside the package itself."""

import ast
from pathlib import Path

import equicut

PACKAGE_DIR = Path(equicut.__file__).parent


def _loaded_names() -> set[str]:
    """Names read (not just defined) anywhere in the package's modules."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    loaded = _loaded_names()
    unused = sorted(name for name in equicut.__all__ if name not in loaded)
    assert not unused, f"public names with no caller in src/equicut: {unused}"
