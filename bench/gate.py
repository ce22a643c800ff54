"""Correctness gate: checks workload outputs against the recorded reference.

The reference (``reference.json.gz``, written by ``record_reference.py``)
holds every row of the three corpus workloads at the default seed and at
one held-out seed.  An operation is a row for the corpus workloads and an
invocation for ``verify-cells``, whose cells are default-grid corpus rows.

An operation fails when it is missing, raises, exits 3, or exits with a
code that disagrees with its rows; when its verdict flips between Holds
and Violated or moves from Inconclusive to Violated; or when one of its
values leaves the reference by more than the larger of the two error
budgets.  Inconclusive to Holds is allowed.

Rows that use no seeded corpus entry are the same at every seed, so they
are compared in full at any seed.  Rows that use ``quad-rand`` or
``poly-rand`` are compared in full at the recorded seeds only; at other
seeds there is nothing to compare their verdicts and values with, so
they must only be present.  The gate detects changes from the reference;
it does not judge the reference itself.  For example, at seeds 99 and
1000 corpus-tiny reports eight seeded rows Violated at the recorded
commit, an artifact of absolute tolerances on [0, 1e-6].
"""

from __future__ import annotations

import gzip
import json
import os

from workloads import CELL_SOURCE, cell_of

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json.gz")
DEFAULT_SEED = 42
HELD_OUT_SEED = 2026

KEY = ("theorem", "f", "g", "a", "b", "alpha", "p", "q")
FIELDS = KEY + ("status", "lhs", "mid", "rhs", "observed", "bound",
                "error_budget")
VALUES = ("lhs", "mid", "rhs", "observed", "bound")
# corpus entries built from --seed in frachh.functions
SEEDED_LABELS = frozenset({"quad-rand", "poly-rand"})
# these verifiers divide error_budget by max(1, |values|); others do not
SCALED_BUDGET = frozenset({"identity-1-4", "identity-2-3", "lemma-2-1",
                           "aux-integrals"})
EXIT_CODE = {"Violated": 1, "Inconclusive": 2}


def row_key(row: dict) -> tuple:
    return tuple(row[k] for k in KEY)


def parse_rows(text: str) -> list[dict]:
    """Rows of one JSON output, reduced to the fields the benchmark reads."""
    return [{k: row[k] for k in FIELDS + ("evaluations",)}
            for row in json.loads(text)["rows"]]


def worst_exit(rows: list[dict]) -> int:
    codes = {EXIT_CODE.get(row["status"], 0) for row in rows}
    return 1 if 1 in codes else max(codes, default=0)


def absolute_budgets(rows: list[dict]) -> dict[tuple, float]:
    aux_scale: dict[tuple, float] = {}
    for row in rows:
        if row["theorem"] == "aux-integrals":
            cell = (row["a"], row["b"], row["alpha"])
            aux_scale[cell] = max(aux_scale.get(cell, 1.0), abs(row["lhs"]))
    budgets = {}
    for row in rows:
        scale = 1.0
        if row["theorem"] == "aux-integrals":
            scale = aux_scale[(row["a"], row["b"], row["alpha"])]
        elif row["theorem"] in SCALED_BUDGET:
            scale = max(abs(row["lhs"]), abs(row["rhs"]), 1.0)
        budgets[row_key(row)] = row["error_budget"] * scale
    return budgets


class Reference:
    def __init__(self, path: str = REFERENCE):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
        self._runs = {
            workload: {int(seed): [dict(zip(FIELDS, r)) for r in run["rows"]]
                       for seed, run in runs.items()}
            for workload, runs in data.items()}

    def rows(self, workload: str, seed: int) -> tuple[list[dict], bool]:
        """Reference rows for a workload and whether they are this seed's."""
        runs = self._runs[CELL_SOURCE if workload == "verify-cells"
                          else workload]
        if seed in runs:
            return runs[seed], True
        return runs[DEFAULT_SEED], False

    def cells(self) -> list[tuple]:
        return sorted({cell_of(r) for r in self._runs[CELL_SOURCE][DEFAULT_SEED]},
                      key=repr)


def row_problem(new: dict, ref: dict, budgets_new: dict, budgets_ref: dict,
                recorded: bool) -> str | None:
    if not recorded and (new["f"] in SEEDED_LABELS
                         or new["g"] in SEEDED_LABELS):
        return None
    key = row_key(new)
    status, was = new["status"], ref["status"]
    if {status, was} == {"Holds", "Violated"} or (
            was == "Inconclusive" and status == "Violated"):
        return f"verdict {was} -> {status}"
    tol = max(budgets_new[key], budgets_ref[key])
    for field in VALUES:
        if ref[field] is None:
            continue
        if new[field] is None or not abs(new[field] - ref[field]) <= tol:
            return (f"{field} {new[field]!r} vs reference {ref[field]!r} "
                    f"(budget {tol:.3g})")
    return None


def invocation_rows(call) -> tuple[list[dict] | None, str | None]:
    """Rows of one captured call, or the reason the whole call failed."""
    text, code, err = call
    if code is None:
        return None, "raised: " + err.strip().splitlines()[-1]
    if code == 3:
        return None, "exit 3: " + err.strip()
    try:
        rows = parse_rows(text)
    except (ValueError, KeyError) as exc:
        return None, f"unreadable output: {exc!r}"
    if code != worst_exit(rows):
        return None, f"exit {code} but rows say {worst_exit(rows)}"
    return rows, None


def check_rows(rows: list[dict], expected: list[dict],
               recorded: bool) -> list[str]:
    """One problem string per failed operation (row)."""
    want = {row_key(r): r for r in expected}
    got = {row_key(r): r for r in rows}
    budgets_new, budgets_ref = absolute_budgets(rows), absolute_budgets(expected)
    problems = [f"{key}: missing" for key in want if key not in got]
    for key, row in got.items():
        if key not in want:
            problems.append(f"{key}: not in the reference")
            continue
        problem = row_problem(row, want[key], budgets_new, budgets_ref,
                              recorded)
        if problem:
            problems.append(f"{key}: {problem}")
    if len(got) != len(rows):
        problems.append(f"{len(rows) - len(got)} duplicate rows")
    return problems


def check_workload(workload: str, seed: int, calls: list, cells: list,
                   reference: Reference) -> tuple[int, list[str]]:
    """Returns (attempted operations, one problem per failed operation)."""
    expected, recorded = reference.rows(workload, seed)
    if workload != "verify-cells":
        rows, failure = invocation_rows(calls[0])
        if failure:
            return len(expected), [failure] * len(expected)
        return max(len(expected), len(rows)), check_rows(rows, expected,
                                                          recorded)
    by_cell: dict[tuple, list[dict]] = {}
    for row in expected:
        by_cell.setdefault(cell_of(row), []).append(row)
    problems = []
    for cell, call in zip(cells, calls):
        rows, failure = invocation_rows(call)
        if not failure:
            found = check_rows(rows, by_cell.get(cell, []), recorded)
            failure = "; ".join(found) if found else None
        if failure:
            problems.append(f"{cell}: {failure}")
    return len(calls), problems
