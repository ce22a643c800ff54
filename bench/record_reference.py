"""Record the correctness reference from the current checkout.

    python3 bench/record_reference.py

Runs each corpus workload at the default and the held-out seed and
writes every row to bench/reference.json.gz.  Run it only at a commit
whose output is trusted: the gate compares every later commit to it.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from frachh.cli import main  # noqa: E402

from gate import (DEFAULT_SEED, FIELDS, HELD_OUT_SEED, REFERENCE,  # noqa: E402
                  SEEDED_LABELS, invocation_rows, row_key)
from passes import run_pass  # noqa: E402
from workloads import CORPUS_ARGS, corpus_argv  # noqa: E402


def record() -> dict:
    data = {}
    for workload in CORPUS_ARGS:
        runs = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            calls, _ = run_pass(main, [corpus_argv(workload, seed)])
            rows, failure = invocation_rows(calls[0][:3])
            if failure:
                raise SystemExit(f"{workload} seed {seed}: {failure}")
            if len({row_key(r) for r in rows}) != len(rows):
                raise SystemExit(f"{workload} seed {seed}: duplicate rows")
            runs[seed] = rows
        unseeded = [
            {row_key(r): r for r in rows
             if r["f"] not in SEEDED_LABELS and r["g"] not in SEEDED_LABELS}
            for rows in runs.values()]
        if unseeded[0] != unseeded[1]:
            raise SystemExit(f"{workload}: rows without seeded entries "
                             "differ between seeds")
        data[workload] = {
            str(seed): {"rows": [[r[k] for k in FIELDS] for r in rows]}
            for seed, rows in runs.items()}
        print(workload, {s: len(r) for s, r in runs.items()})
    return data


if __name__ == "__main__":
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as raw:
        raw.write(json.dumps(record(), separators=(",", ":")).encode())
    print("wrote", REFERENCE, os.path.getsize(REFERENCE), "bytes")
