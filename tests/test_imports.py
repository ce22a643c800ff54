"""The package runs on the standard library alone.

Every import in src/frachh is read from the source, so an import that
happens to succeed here (a third-party package installed on this
interpreter) still fails the test.
"""

import ast
import sys
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
