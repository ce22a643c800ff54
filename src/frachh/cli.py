"""Command line front end.

Three subcommands:

* verify: one theorem, one function/weight/setting, one report.
* corpus: every requested theorem over the builtin corpus and grids.
* sweep: one theorem and one function across alpha (and q) grids.

The Holder bounds take q alone (--q, --q-grid); their pair is
functions.HolderPair(q), and the p column is its conjugate.

Output is JSON by default (--format csv or text otherwise), written to
stdout or --out.  Floats are rendered with 17 significant digits, rows
are emitted in a deterministic sorted order, and the builtin corpus is
seeded, so a fixed command line plus a fixed --seed reproduces output
byte for byte.

Exit codes: 0 when every row Holds, 1 when any row is Violated, 2 when
the worst row is Inconclusive, 3 for usage or configuration errors,
for inputs whose values overflow (or underflow to a zero divisor) and
when --out cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import operator
import re
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, Iterator, Optional, Sequence

from . import inequalities as ineq
from .fracops import FracSetting
from .functions import (FunctionSpec, HolderPair, WeightSpec,
                        builtin_function_corpus, builtin_weight_corpus)
from .numerics import DEFAULT_TOL, DomainError, EvaluationError
from .inequalities import Status

__all__ = ["main", "RunConfig", "THEOREMS", "run_rows"]

# the columns filled from the Report field of the same name
VALUE_COLUMNS = ("lhs", "mid", "rhs", "observed", "bound", "margin_lower",
                 "margin_upper", "slack")
CSV_COLUMNS = ("theorem", "f", "g", "a", "b", "alpha", "p", "q",
               *VALUE_COLUMNS, "error_budget", "status", "evaluations",
               "seed")

DEFAULT_ALPHA_GRID = (0.25, 0.5, 1.0, 2.0)
DEFAULT_Q_GRID = (2.0, 3.0)
SWEEP_ALPHA_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)

# (a, b) pairs exercised by the scalar power gap lemma in corpus runs
LEMMA_SCALAR_PAIRS = ((0.0, 1.0), (0.25, 1.25), (0.5, 2.0), (1.0, 3.0),
                      (2.0, 2.5))


# the keyword arguments run_rows supplies a verifier
_SUPPLIED = frozenset(("ident", "f", "g", "s", "a", "b", "alpha", "pair",
                       "tol", "force", "memo"))


@dataclass(frozen=True)
class TheoremInfo:
    ident: str
    kind: str  # sandwich | identity | bound | aux | lemma
    verify: Callable[..., object]
    # the inputs it reads, of f, g, alpha and q; "p" marks the rows that
    # report p, the conjugate of q, as well
    reads: tuple[str, ...]
    max_alpha: float = math.inf  # larger orders are skipped in grids
    intervals: tuple = ()  # corpus intervals in place of [a, b]
    # the parameters of verify that run_rows supplies, in signature order
    args: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(
            name for name in inspect.signature(self.verify).parameters
            if name in _SUPPLIED))


THEOREMS: dict[str, TheoremInfo] = {t.ident: t for t in (
    TheoremInfo("hh-classical", "sandwich", ineq.hh_classical, ("f",)),
    TheoremInfo("fejer-classical", "sandwich", ineq.fejer_classical,
                ("f", "g")),
    TheoremInfo("hh-fractional", "sandwich", ineq.fejer_fractional,
                ("f", "alpha")),
    TheoremInfo("fejer-fractional", "sandwich", ineq.fejer_fractional,
                ("f", "g", "alpha")),
    TheoremInfo("identity-1-4", "identity", ineq.weighted_trapezoid_identity,
                ("f", "alpha")),
    TheoremInfo("identity-2-3", "identity", ineq.weighted_trapezoid_identity,
                ("f", "g", "alpha")),
    *(TheoremInfo(ident, "bound", ineq.weighted_bound,
                  ("f", "alpha", *form.reads), form.max_alpha)
      for ident, form in ineq.WEIGHTED_BOUNDS.items()),
    TheoremInfo("aux-integrals", "aux", ineq.aux_integrals, ("alpha",)),
    TheoremInfo("lemma-1-6", "lemma", ineq.scalar_power_lemma, ("alpha",),
                max_alpha=1.0, intervals=LEMMA_SCALAR_PAIRS),
    TheoremInfo("lemma-2-1", "lemma", ineq.check_symmetry_lemma,
                ("g", "alpha")),
)}


@dataclass(frozen=True)
class RunConfig:
    a: float = 0.0
    b: float = 1.0
    tol: float = DEFAULT_TOL
    seed: int = 42
    force: bool = False
    strict_paper: bool = False


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- rows

def _report_rows(ident: str, reports: Sequence[ineq.Report], cfg: RunConfig,
                 **labels) -> list[dict]:
    rows = []
    for report in reports:
        row = dict.fromkeys(CSV_COLUMNS)
        row.update(theorem=ident, seed=cfg.seed, a=cfg.a, b=cfg.b, **labels,
                   error_budget=report.error_budget,
                   status=report.status.value,
                   evaluations=report.evaluations, notes=report.notes)
        if report.part is not None:
            row["f"] = report.part
        row.update((col, getattr(report, col)) for col in VALUE_COLUMNS)
        rows.append(row)
    return rows


def _sort_key(row: dict):
    def k(key):
        v = row[key]
        return (v is not None, v if v is not None else 0)
    return tuple(k(c) for c in ("theorem", "f", "g", "a", "b", "alpha",
                                "q", "p"))


def _worst_status(rows: Sequence[dict]) -> int:
    statuses = {row["status"] for row in rows}
    if Status.VIOLATED.value in statuses:
        return 1
    if Status.INCONCLUSIVE.value in statuses:
        return 2
    return 0


# ------------------------------------------------------------- running

def _check_inputs(ident: str, **inputs) -> None:
    # each input given iff the statement reads it; a grid (alpha_grid,
    # q_grid) may be left out for its default
    reads = THEOREMS[ident].reads
    for name, value in inputs.items():
        read = name.removesuffix("_grid") in reads
        if value is not None and not read:
            raise UsageError(f"{ident} takes no --{name.replace('_', '-')}")
        if value is None and read and not name.endswith("_grid"):
            raise UsageError(f"{ident} needs --{name}")


def _check_orders(ident: str, alphas: Sequence[float]) -> None:
    # a statement named on the command line needs an order it takes
    info = THEOREMS[ident]
    if "alpha" in info.reads and min(alphas) > info.max_alpha:
        raise UsageError(f"{ident} is restricted to 0 < alpha <= "
                         f"{info.max_alpha:g}, got {min(alphas)!r}")


def run_rows(ident: str, cfg: RunConfig, *, f: Optional[FunctionSpec] = None,
             g: Optional[WeightSpec] = None, alpha: Optional[float] = None,
             q: Optional[float] = None,
             memo: Optional[dict] = None) -> list[dict]:
    """Run one theorem once and flatten the report into output rows.

    Calls given the same memo share every derived quantity of their
    cells (see inequalities.Cell).  Each quantity is charged to the
    evaluations of the row that first reads it.
    """
    info = THEOREMS[ident]
    _check_inputs(ident, f=f, g=g, alpha=alpha, q=q)
    pair = None if q is None else HolderPair(q)

    args = dict(ident=ident, f=f, g=g, a=cfg.a, b=cfg.b, alpha=alpha,
                pair=pair, tol=cfg.tol, force=cfg.force,
                memo={} if memo is None else memo)
    if "s" in info.args:
        args["s"] = FracSetting(cfg.a, cfg.b, alpha)
    report = info.verify(**{name: args[name] for name in info.args})
    reports = report if isinstance(report, tuple) else (report,)
    return _report_rows(ident, reports, cfg, f=f.label if f else None,
                        g=g.label if g else None, alpha=alpha,
                        p=pair.p if "p" in info.reads else None,
                        q=pair.q if pair else None)


def _cells(info: TheoremInfo, functions: Sequence, weights: Sequence,
           alphas: Sequence[float], qs: Sequence[float]) -> Iterator[tuple]:
    # every (f, g, alpha, q) the statement takes from the grids; inputs
    # it does not read are None, orders above its max_alpha are skipped
    for alpha in alphas if "alpha" in info.reads else (None,):
        if alpha is not None and alpha > info.max_alpha:
            continue
        for f in functions if "f" in info.reads else (None,):
            for g in weights if "g" in info.reads else (None,):
                for q in qs if "q" in info.reads else (None,):
                    yield f, g, alpha, q


def _admits(info: TheoremInfo, f: Optional[FunctionSpec]) -> bool:
    # identities need f'; bounds also a certified convex |f'| (any q >= 1)
    if info.kind == "bound":
        return f.admits_deriv_power(1.0)
    return info.kind != "identity" or f.deriv is not None


def _corpus_rows(idents: Sequence[str], cfg: RunConfig, functions: Sequence,
                 weights: Sequence, alphas: Sequence[float],
                 qs: Sequence[float]) -> list[dict]:
    memo: dict = {}
    rows: list[dict] = []
    # sorted, so a shared quantity is charged to the first statement id
    for ident in sorted(idents):
        info = THEOREMS[ident]
        for a, b in info.intervals or ((cfg.a, cfg.b),):
            run_cfg = replace(cfg, a=a, b=b)
            for f, g, alpha, q in _cells(info, functions, weights, alphas,
                                         qs):
                if _admits(info, f):
                    rows += run_rows(ident, run_cfg, f=f, g=g, alpha=alpha,
                                     q=q, memo=memo)
    return rows


# --------------------------------------------------------- serializing

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in output: {x!r}")
    return format(x, ".17g")


def _texts(values, null: str, quote: Callable) -> list[str]:
    # each value as output text: a float by _fmt_float, None as null,
    # anything else by quote
    return [null if v is None else _fmt_float(v) if isinstance(v, float)
            else quote(v) for v in values]


_column_values = operator.itemgetter(*CSV_COLUMNS)
_JSON_ROW = ("    {{" + "".join(f'"{c}": {{}}, ' for c in CSV_COLUMNS)
             + '"notes": [{}]}}')


def _render_json(rows: list[dict], cfg: RunConfig) -> str:
    # labels, statuses and notes repeat, so each is quoted once; typed, so
    # 1 and 0 never share an entry with true and false
    quote = functools.lru_cache(maxsize=None, typed=True)(json.dumps)
    config = ", ".join(f'"{f.name}": {text}' for f, text in zip(
        fields(cfg), _texts(astuple(cfg), "null", quote)))
    body = ",\n".join(
        _JSON_ROW.format(*_texts(_column_values(row), "null", quote),
                         ", ".join(map(quote, row["notes"])))
        for row in rows)
    return f'{{\n  "config": {{{config}}},\n  "rows": [\n{body}\n  ]\n}}\n'


def _render_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_texts(_column_values(row), "", str) for row in rows)
    return out.getvalue()


def _render_text(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        head = row["theorem"]
        # each number as the shortest text that reads back as it
        tag = lambda k: repr(row[k]).removesuffix(".0")
        tags = [f"{k}={row[k]}" for k in ("f", "g") if row[k]]
        tags += [f"{k}={tag(k)}" for k in ("alpha", "q", "p")
                 if row[k] is not None]
        tags.append(f"[{tag('a')}, {tag('b')}]")
        body = []
        if row["lhs"] is not None and row["mid"] is not None:
            body.append(f"lhs={row['lhs']:.12g} mid={row['mid']:.12g} "
                        f"rhs={row['rhs']:.12g}")
        elif row["lhs"] is not None:
            body.append(f"lhs={row['lhs']:.12g} rhs={row['rhs']:.12g} "
                        f"residual={abs(row['lhs'] - row['rhs']):.3g}")
        if row["observed"] is not None:
            body.append(f"observed={row['observed']:.12g} "
                        f"bound={row['bound']:.12g} "
                        f"slack={row['slack']:.3g}")
        body.append(f"budget={row['error_budget']:.3g}")
        lines.append(f"{row['status']:14} {head}  {' '.join(tags)}  "
                     f"{' '.join(body)}")
        for note in row["notes"]:
            lines.append(f"{'':14} note: {note}")
    counts = {s.value: 0 for s in Status}
    for row in rows:
        counts[row["status"]] += 1
    lines.append(f"rows={len(rows)} holds={counts['Holds']} "
                 f"violated={counts['Violated']} "
                 f"inconclusive={counts['Inconclusive']}")
    return "\n".join(lines) + "\n"


def _emit(rows: list[dict], cfg: RunConfig, fmt: str,
          out_path: Optional[str]) -> None:
    rows = sorted(rows, key=_sort_key)
    text = (_render_json(rows, cfg) if fmt == "json" else
            _render_csv(rows) if fmt == "csv" else _render_text(rows))
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# -------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value like -1e-3 is a negative number, not an option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # usage errors exit 3, not argparse's 2
        raise UsageError(message)


def _grid(text: str, least: float = 0.0,
          refusal: str = "alpha grid values must be positive and finite"
          ) -> tuple[float, ...]:
    """The distinct values of a comma list, each finite and > least."""
    try:
        values = tuple(dict.fromkeys(  # the first copy of each value
            float(part) for part in text.split(",") if part.strip()))
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}")
    if not values:
        raise UsageError(f"empty grid {text!r}")
    if not all(least < v < math.inf for v in values):
        raise UsageError(f"{refusal}: {text!r}")
    return values


def _q_grid(text: str) -> tuple[float, ...]:
    return _grid(text, 1.0, "q grid values must be finite and > 1")


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--a", type=float, default=0.0,
                     help="left endpoint (default 0)")
    sub.add_argument("--b", type=float, default=1.0,
                     help="right endpoint (default 1)")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="quadrature tolerance (default 1e-9)")
    sub.add_argument("--seed", type=int, default=42,
                     help="corpus seed (default 42)")
    sub.add_argument("--force", action="store_true",
                     help="run even when hypotheses fail, noting it")
    sub.add_argument("--strict-paper", action="store_true",
                     help="reject intervals with a < 0, for every statement")
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    sub.add_argument("--out", default=None, help="write output to this path")


@functools.cache  # built on the first call, not at import: ~15 parses
def build_parser() -> _Parser:
    parser = _Parser(prog="frachh",
                     description="numerical checks of Hermite-Hadamard and "
                                 "Fejer type statements for fractional "
                                 "integral means")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", parents=[], help="check one theorem once")
    p.add_argument("--thm", "--theorem", dest="theorem", required=True,
                   choices=sorted(THEOREMS))
    p.add_argument("--f", default=None, help="function label from the corpus")
    p.add_argument("--g", default=None, help="weight label from the corpus")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("corpus",
                        help="run theorems across the builtin corpus")
    p.add_argument("--theorems", default="all",
                   help="comma list of theorem ids, or 'all'")
    p.add_argument("--alpha-grid", type=_grid, default=DEFAULT_ALPHA_GRID,
                   metavar="A1,A2,...")
    p.add_argument("--q-grid", type=_q_grid, default=DEFAULT_Q_GRID,
                   metavar="Q1,Q2,...")
    _add_common(p)

    p = subs.add_parser("sweep",
                        help="one theorem, one function, across grids")
    p.add_argument("--thm", "--theorem", dest="theorem", required=True,
                   choices=sorted(THEOREMS))
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--alpha-grid", type=_grid, default=None,
                   metavar="A1,A2,...")
    p.add_argument("--q-grid", type=_q_grid, metavar="Q1,Q2,...")
    _add_common(p)

    return parser


def _config_from(args) -> RunConfig:
    if not (0.0 < args.tol < 1.0):
        raise UsageError(f"tolerance must be in (0, 1), got {args.tol!r}")
    if args.strict_paper and args.a < 0:
        raise UsageError(f"strict mode requires a >= 0, got a = {args.a!r}")
    return RunConfig(args.a, args.b, args.tol, args.seed, args.force,
                     args.strict_paper)


def _lookup(label: Optional[str], pool, what: str):
    if label is None:
        return None
    for item in pool:
        if item.label == label:
            return item
    names = ", ".join(sorted(item.label for item in pool))
    raise UsageError(f"unknown {what} {label!r}; available: {names}")


def _run_command(args) -> int:
    cfg = _config_from(args)
    functions = builtin_function_corpus(cfg.a, cfg.b, cfg.seed)
    weights = builtin_weight_corpus(cfg.a, cfg.b, cfg.seed)

    if args.command == "corpus":
        if args.theorems.strip() == "all":
            idents = sorted(THEOREMS)
        else:
            idents = list(dict.fromkeys(
                part.strip() for part in args.theorems.split(",")
                if part.strip()))
            if not idents:
                raise UsageError(f"no theorem ids in {args.theorems!r}")
            unknown = [i for i in idents if i not in THEOREMS]
            if unknown:
                raise UsageError(f"unknown theorems: {', '.join(unknown)}")
            for ident in idents:
                _check_orders(ident, args.alpha_grid)
        rows = _corpus_rows(idents, cfg, functions, weights,
                            args.alpha_grid, args.q_grid)
    else:
        f = _lookup(args.f, functions, "function")
        g = _lookup(args.g, weights, "weight")
        if args.command == "verify":
            rows = run_rows(args.theorem, cfg, f=f, g=g, alpha=args.alpha,
                            q=args.q)
        else:  # sweep: one statement across grids
            ident = args.theorem
            # _cells would drop unread inputs, so refuse them first
            _check_inputs(ident, f=f, g=g, alpha_grid=args.alpha_grid,
                          q_grid=args.q_grid)
            alphas = args.alpha_grid or SWEEP_ALPHA_GRID
            _check_orders(ident, alphas)
            memo: dict = {}
            rows = []
            for f, g, alpha, q in _cells(THEOREMS[ident], [f], [g], alphas,
                                         args.q_grid or DEFAULT_Q_GRID):
                rows += run_rows(ident, cfg, f=f, g=g, alpha=alpha, q=q,
                                 memo=memo)

    _emit(rows, cfg, args.format, args.out)
    return _worst_status(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _run_command(args)
    except (UsageError, DomainError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError) as exc:
        what = ("overflow, a value exceeds the double range"
                if isinstance(exc, OverflowError)
                else "underflow, a divisor rounds to 0")
        # the message alone: float ** raises with (errno, message) args
        print(f"error: {what} ({exc.args[-1]})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
