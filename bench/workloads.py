"""The four benchmark workloads, as argv lists for ``frachh.cli.main``.

A workload is a list of invocations; one pass runs them in order.  The
corpus workloads are one ``frachh corpus`` call each.  ``verify-cells``
is a closed loop of single-cell ``frachh verify`` calls, one client,
each call starting when the previous one returned.
"""

from __future__ import annotations

import random

CORPUS_ARGS = {
    "corpus-default": [],
    "corpus-hard": ["--a", "1", "--b", "3",
                    "--alpha-grid", "0.1,0.75,1.25,1.5,2.5,5"],
    "corpus-tiny": ["--a", "0", "--b", "1e-6"],
}
WORKLOADS = (*CORPUS_ARGS, "verify-cells")

# Cells of verify-cells are drawn from the default-grid corpus rows.
CELL_SOURCE = "corpus-default"
# ~28% of the 1,451 default-grid cells.  Every (statement, alpha) group
# keeps its share of the corpus and the seed picks which cells fill it:
# integrand calls per cell range from 0 to 33,260, and stratifying by
# statement alone let the draw move the call total by 7% between seeds.
VERIFY_CELLS = 400


def corpus_argv(workload: str, seed: int) -> list[str]:
    return ["corpus", *CORPUS_ARGS[workload], "--seed", str(seed)]


def cell_of(row: dict) -> tuple:
    """The verify cell a corpus row came from.

    The two aux-integrals rows of one alpha (f = e-part, f-part) are one
    cell; bound-2-6 and bound-2-7 take q alone, as the corpus passes it.
    """
    f = None if row["theorem"] == "aux-integrals" else row["f"]
    return (row["theorem"], f, row["g"], row["a"], row["b"], row["alpha"],
            row["q"])


def verify_argv(cell: tuple, seed: int) -> list[str]:
    theorem, f, g, a, b, alpha, q = cell
    argv = ["verify", "--thm", theorem, "--a", repr(float(a)),
            "--b", repr(float(b)), "--seed", str(seed)]
    if f is not None:
        argv += ["--f", f]
    if g is not None:
        argv += ["--g", g]
    if alpha is not None:
        argv += ["--alpha", repr(float(alpha))]
    if q is not None:
        argv += ["--q", repr(float(q))]
    return argv


def sample_cells(cells: list[tuple], seed: int,
                 count: int = VERIFY_CELLS) -> list[tuple]:
    """Distinct cells, stratified by (statement, alpha) in corpus
    proportions, in a seeded order."""
    groups: dict[tuple, list[tuple]] = {}
    for cell in cells:
        groups.setdefault((cell[0], cell[5]), []).append(cell)
    rng = random.Random(seed)
    chosen = []
    for key in sorted(groups, key=repr):
        group = groups[key]
        quota = max(1, round(count * len(group) / len(cells)))
        chosen += rng.sample(group, min(quota, len(group)))
    rng.shuffle(chosen)
    return chosen


def plan(workload: str, seed: int,
         cells: list[tuple]) -> tuple[list[list[str]], list[tuple]]:
    """The invocations of one pass, and the cell behind each verify call.

    `cells` are the distinct default-grid cells, in a fixed order.
    """
    if workload in CORPUS_ARGS:
        return [corpus_argv(workload, seed)], []
    chosen = sample_cells(cells, seed)
    return [verify_argv(cell, seed) for cell in chosen], chosen
