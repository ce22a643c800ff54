"""Run a workload's invocations through ``frachh.cli.main``.

Imported by the benchmark process for its counting and traced passes,
and run as a script for each untraced timed pass, so that every timed
pass starts in a fresh interpreter, as a command-line run does, and its
peak RSS is the workload's own:

    python3 bench/passes.py < spec.json

The spec gives ``src`` (the directory holding the ``frachh`` package)
and ``invocations`` (argv lists).  The script runs one pass and writes
the outputs, the call and pass times and the peak RSS to stdout as one
JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_pass(main, invocations):
    """One pass: returns ([(stdout, exit code, stderr, seconds)], wall)."""
    calls = []
    start = time.perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(list(argv))
            except Exception:
                code = None
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        calls.append((out.getvalue(), code, err.getvalue(), t1 - t0))
    return calls, time.perf_counter() - start


def differences(first, calls) -> dict[int, int]:
    """{call index: output lines that differ} for calls whose stdout or
    exit code differs from the same call in `first`."""
    found = {}
    for i, (a, b) in enumerate(zip(first, calls)):
        if tuple(a[:2]) != tuple(b[:2]):
            left, right = a[0].splitlines(), b[0].splitlines()
            found[i] = max(1, sum(x != y for x, y in zip(left, right))
                           + abs(len(left) - len(right)))
    return found


def _child() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    from frachh.cli import main

    calls, wall = run_pass(main, spec["invocations"])
    json.dump({"calls": [c[:3] for c in calls],
               "call_s": [c[3] for c in calls], "pass_s": wall,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
              sys.__stdout__)


if __name__ == "__main__":
    _child()
