"""src/ stays standard-library only: every module of the package imports the
standard library and conjlab itself, nothing else, and uses what it imports;
every name it defines at module level, private or public, is read by some
module of src/, but for the listed public exceptions; and every method and
attribute of its classes is read as an attribute somewhere in src/.  The
oracles of tests/conftest.py import only public conjlab names."""

import ast
import collections
import os
import pathlib
import pkgutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "conjlab"
CONFTEST = pathlib.Path(__file__).resolve().parent / "conftest.py"


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


def _definitions(tree):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _references(tree):
    """The names a module reads: each Name it loads and each name it imports.
    A word in a docstring or an attribute of the same name is not one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unreferenced(which):
    """(module, name) for each module-level name of the package that ``which``
    selects and that no module of src/ reads."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _references(tree)}
    return {(path.name, name) for path, tree in trees.items()
            for name in _definitions(tree) if which(name) and name not in read}


def test_src_has_no_unreferenced_private_helpers():
    """Every module-level private function, class or constant of the package is
    read somewhere in src/, so a rewrite does not leave a helper behind.
    Dunders such as __all__ are read by the interpreter and are not checked."""
    assert not _unreferenced(lambda name: name.startswith("_") and not name.startswith("__"))


# Public names that nothing in src/ calls, each with the reason it stays.
TEST_ONLY_PUBLIC_NAMES = {
    "chain_stabilization": "acceptance criterion 4 (tests/test_acceptance.py), the "
                           "paper's Noetherianity statement in the descriptor lattice: "
                           "a descending chain of closed sets stabilizes",
}


def test_src_has_no_unreferenced_public_names():
    """Every module-level public function, class or constant of the package is
    read somewhere in src/, so no public code stays that only its own tests
    call; TEST_ONLY_PUBLIC_NAMES lists the exceptions, and a name on it that
    gains a caller in src/ leaves it."""
    unreferenced = _unreferenced(lambda name: not name.startswith("_"))
    assert {name for _, name in unreferenced} == set(TEST_ONLY_PUBLIC_NAMES)


def _attribute_loads(node):
    """How often each attribute name is read under ``node``."""
    return collections.Counter(n.attr for n in ast.walk(node)
                               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_src_has_no_unread_methods():
    """Every non-dunder method, property or staticmethod of a class of the
    package is read by some attribute load in src/ outside its own def, so no
    method stays that only tests call.  The check goes by name, so a method
    named like a field op or a Matrix method that src/ reads elsewhere (say
    ``add``, ``mul`` or ``scale``) passes it whoever calls it: it cannot be
    caught this way."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    read = sum(map(_attribute_loads, trees), collections.Counter())
    unread = {f"{cls.name}.{d.name}" for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for d in cls.body
              if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (d.name.startswith("__") and d.name.endswith("__"))
              and read[d.name] == _attribute_loads(d)[d.name]}
    assert not unread


def _class_fields(cls):
    """The annotated names and the ``__slots__`` names of a class body."""
    for d in cls.body:
        if isinstance(d, ast.AnnAssign) and isinstance(d.target, ast.Name):
            yield d.target.id
        elif (isinstance(d, ast.Assign)
              and [getattr(t, "id", None) for t in d.targets] == ["__slots__"]):
            yield from ast.literal_eval(d.value)


def test_src_has_no_unread_attributes():
    """Every attribute a class of the package sets on self (``self.x = ...``),
    and every field of a class body, annotated or named in ``__slots__``, is
    read by some attribute load in src/, so no attribute stays that only
    tests read.  Like the method check it goes by name, so an attribute named
    like one that src/ reads elsewhere passes it."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    read = sum(map(_attribute_loads, trees), collections.Counter())
    unread = set()
    for cls in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        fields = set(_class_fields(cls))
        stored = {n.attr for n in ast.walk(cls)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"}
        unread |= {f"{cls.name}.{name}" for name in fields | stored if not read[name]}
    assert not unread


def test_cli_import_loads_every_module():
    """A fresh interpreter that imports conjlab.cli has loaded every module of
    the package, and neither ``dataclasses`` nor ``inspect``: the value types
    are records on ``fields.Record``, built without either.  The benchmark's
    tracer relies on the first part: ``Tracer.install``
    patches only the conjlab modules already loaded, so a module imported
    after it binds a wrapper that ``restore()`` cannot undo, and a traced run
    then reports itself incorrect.  Importing each verb's modules lazily
    (ROADMAP item 2) breaks this on purpose: the change that does so deletes
    this test, after the tracer fix of ROADMAP item 1, which imports every
    submodule before patching, has landed as a benchmark change."""
    import conjlab
    want = {f"conjlab.{m.name}" for m in pkgutil.iter_modules(conjlab.__path__)}
    code = ("import sys, conjlab.cli; print(*sorted(m for m in sys.modules "
            "if m.startswith('conjlab.') or m in ('dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    loaded = set(out.stdout.split())
    assert want <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_conftest_imports_only_public_conjlab_names():
    """The oracles of tests/conftest.py take from conjlab only public names of
    public modules, each by a from-import, so they stay independent of the
    private fast paths they check."""
    tree = ast.parse(CONFTEST.read_text(), str(CONFTEST))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "conjlab"
             for alias in node.names]
    assert names
    assert not [name for module, name in names
                if any(part.startswith("_") for part in (*module.split("."), name))]
    assert not [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "conjlab"]
