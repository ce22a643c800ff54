"""The CLI output, byte for byte: every invocation of
tests/data/record_golden.py still exits with the recorded code and writes
the recorded sha256.  A change that moves values on purpose re-records
tests/data/golden.json and lists the moved rows."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "record_golden", Path(__file__).resolve().parent / "data" / "record_golden.py")
record_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_golden)
GOLDEN = json.loads(record_golden.GOLDEN.read_text(encoding="utf-8"))


def test_every_invocation_is_recorded():
    assert sorted(GOLDEN) == sorted(record_golden.INVOCATIONS)


@pytest.mark.parametrize("name", sorted(record_golden.INVOCATIONS))
def test_output_bytes_are_the_recorded_ones(name):
    assert record_golden.digest(record_golden.INVOCATIONS[name]) == GOLDEN[name]
