"""The benchmark's correctness gate, run on two corpus workloads.

bench/gate.py compares a run's rows with the reference recorded in
bench/reference.json.gz: verdicts may not flip, and every value must
stay within the error budget.  Running it here makes value drift fail
the test suite, not only a benchmark run.  The bench modules are
imported as they are and nothing under bench/ is written.
"""

import sys
from pathlib import Path

import pytest

from frachh import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import gate
    from workloads import corpus_argv
finally:
    sys.dont_write_bytecode = _bytecode

SEED = 42


@pytest.fixture(scope="module")
def reference():
    return gate.Reference()


@pytest.mark.parametrize("workload", ["corpus-default", "corpus-tiny"])
def test_corpus_passes_the_gate(workload, reference, capsys):
    code = cli.main(corpus_argv(workload, SEED))
    out, err = capsys.readouterr()
    rows, failure = gate.invocation_rows((out, code, err))
    assert failure is None
    assert gate.check_rows(rows, *reference.rows(workload, SEED)) == []
