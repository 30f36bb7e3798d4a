"""src/ stays standard-library only: every module of the package imports the
standard library and conjlab itself, nothing else."""

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
