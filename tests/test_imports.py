"""The package runs on the standard library alone, and its annotations
name what it imports.

Every import in src/frachh is read from the source, so an import that
happens to succeed here (a third-party package installed on this
interpreter) still fails the test.  Annotations are strings until read
(`from __future__ import annotations`), so a name they use but never
import is found only by resolving them.
"""

import ast
import importlib
import inspect
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
