"""src/ stays standard-library only: every module of the package imports the
standard library and conjlab itself, nothing else, and uses what it imports."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "conjlab"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = {(path.name, root) for path in modules
               for root in _imported_roots(ast.parse(path.read_text(), str(path)))
               if root not in sys.stdlib_module_names and root != "conjlab"}
    assert not foreign


def _unused_imports(tree):
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_src_has_no_unused_imports():
    """Every name a module of the package imports is referenced in it, so a
    deletion does not leave an import behind."""
    unused = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))}
    assert not unused
