"""No module of the package imports a name it never uses, and no private
module-level definition goes unread.

Each module but the package's __init__ (whose imports are its exports) is
parsed with ast; an imported name counts as used where it is read as a
name anywhere in the module or listed in its __all__.  A private function,
class or constant (a leading underscore, not a dunder) bound at a module's
top level counts as read where any module of the package, __init__ included,
reads it as a name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

import gainorder

PACKAGE = sorted(Path(gainorder.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _private_definitions(tree: ast.Module) -> dict:
    """Each private name a def, class or assignment binds at the module's top
    level, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _read(tree: ast.Module) -> set:
    """Each name the module reads, as a name or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


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


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    read = set().union(*map(_read, trees.values()))
    unread = {f"{module}:{line}": name for module, tree in trees.items()
              for name, line in _private_definitions(tree).items() if name not in read}
    assert not unread, f"private definitions no module of the package reads: {unread}"


def test_an_unread_private_definition_is_caught():
    tree = ast.parse("import m\n_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _f(): return _A\nclass _C: pass\ndef _g(): pass\n"
                     "def h(_x): _y = 1\nm._g\n")
    assert set(_private_definitions(tree)) - _read(tree) == {"_B", "_f", "_C"}
