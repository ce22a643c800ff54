"""Record the sha256 of the CLI output that tests/test_golden.py pins.

Run from the repository root as

    PYTHONPATH=src python tests/data/record_golden.py

to rewrite golden.json beside this file.  A change that moves output
values on purpose re-records it and lists the moved rows; any other
change must leave every digest as it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from frachh import cli

GOLDEN = Path(__file__).resolve().with_name("golden.json")
GRIDS = {
    "default": [],
    "hard": ["--a", "1", "--b", "3", "--alpha-grid", "0.1,0.75,1.25,1.5,2.5,5"],
    "tiny": ["--a", "0", "--b", "1e-6"],
}
# JSON at two seeds; CSV and text, which render the same rows, at one
INVOCATIONS = {
    f"{grid}-{fmt}-{seed}": ["corpus", *args, "--seed", str(seed),
                             "--format", fmt]
    for grid, args in GRIDS.items()
    for fmt, seeds in (("json", (42, 2026)), ("csv", (42,)), ("text", (42,)))
    for seed in seeds
}
# what the corpus never renders: a forced row's "hypotheses unmet" note, and
# a sweep's rows, which carry p and q
INVOCATIONS["verify-force-json-42"] = [
    "verify", "--thm", "bound-1-5", "--f", "xlogx", "--a", "1", "--b", "3",
    "--alpha", "0.5", "--force", "--format", "json"]
INVOCATIONS.update(
    (f"sweep-{fmt}-42", ["sweep", "--thm", "bound-2-5", "--f", "exp", "--g",
                         "bump", "--format", fmt])
    for fmt in ("json", "csv", "text"))


def digest(argv: list[str]) -> dict:
    """The exit code of `frachh <argv>`, run in process, and the sha256 of
    what it writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def main() -> None:
    record = {name: digest(argv) for name, argv in INVOCATIONS.items()}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
