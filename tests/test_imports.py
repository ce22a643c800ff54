"""The package runs on the standard library alone, ships only what the
command loads, and its annotations name what it imports.

Every import in src/frachh is read from the source, so an import that
happens to succeed here (a third-party package installed on this
interpreter) still fails the test.  Annotations are strings until read
(`from __future__ import annotations`), so a name they use but never
import is found only by resolving them.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frachh"


def _imported(tree):
    # top-level names of absolute imports; relative ones stay in frachh
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_only_frachh_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    outside = {name for name in _imported(tree)
               if name != "frachh" and name not in sys.stdlib_module_names}
    assert outside == set()


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import math\nfrom mpmath import mpf\nfrom . import cli\n")
    assert [name for name in _imported(tree)
            if name not in sys.stdlib_module_names] == ["mpmath"]


def test_the_command_loads_every_module():
    # a fresh interpreter, so no test has imported a module already; a
    # module the command never loads is code the runtime does not need
    probe = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
             "import frachh.cli; print(*sorted(sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True).stdout.split()
    shipped = {"frachh" if path.stem == "__init__" else f"frachh.{path.stem}"
               for path in SRC.glob("*.py") if path.stem != "__main__"}
    assert shipped - set(loaded) == set()


def _defined(namespace, module):
    """The functions and methods (property getters included) defined in
    module, in namespace and in the classes it defines, recursively."""
    for obj in vars(namespace).values():
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        if inspect.isfunction(obj) and obj.__module__ == module:
            yield obj
        elif inspect.isclass(obj) and obj.__module__ == module:
            yield from _defined(obj, module)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_annotation_resolves(path):
    module = importlib.import_module(
        "frachh" if path.stem == "__init__" else f"frachh.{path.stem}")
    unresolved = []
    for fn in _defined(module, module.__name__):
        try:
            typing.get_type_hints(fn)
        except (NameError, AttributeError, TypeError) as error:
            unresolved.append(f"{fn.__qualname__}: {error!r}")
    assert unresolved == []


def _bound(stmt):
    """The names a module-level statement binds: by def, class, assignment
    or import."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).partition(".")[0]
                for alias in stmt.names]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _read(stmt):
    # names a statement reads, as a name or as an attribute of a module
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.Attribute)}


def _unread_private(sources):
    """module:name for each private name (_x, not __x__) that a module in
    sources binds at top level and no other top-level statement of any of
    them reads, matched by name: a helper only the tests call."""
    stmts = [(module, stmt) for module, text in sources.items()
             for stmt in ast.parse(text).body]
    reads = [_read(stmt) for _, stmt in stmts]
    return [f"{module}:{name}" for i, (module, stmt) in enumerate(stmts)
            for name in _bound(stmt)
            if name.startswith("_") and not name.endswith("__")
            and not any(name in read for j, read in enumerate(reads) if j != i)]


def test_every_private_name_is_read_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert _unread_private(sources) == []


def test_the_check_sees_a_private_name_only_its_definition_reads():
    sources = {"a.py": "_LIMIT = 2\n_N = 3\n"
                       "def _kept(x):\n    return x + _N\n"
                       "def _own(x):\n    return _own(x - 1) if x else _LIMIT\n",
               "b.py": "import a\nprint(a._kept(1))\n"}
    assert _unread_private(sources) == ["a.py:_own"]
