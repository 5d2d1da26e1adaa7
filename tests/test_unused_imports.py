"""No module of the package imports a name it never uses.

Each module but the package's __init__ (whose imports are its exports) is
parsed with ast; an imported name counts as used where it is read as a
name anywhere in the module or listed in its __all__.
"""

import ast
from pathlib import Path

import pytest

import gainorder

MODULES = sorted(p for p in Path(gainorder.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Each name an import statement binds, with the line it is bound on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"classifier.py", "cli.py", "distributions.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import math\nimport os.path\nfrom json import dumps as d\n"
                     "from x import y, z\n__all__ = ['z']\nos.sep\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "d", "y"}
