"""frachh benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload corpus-default --seed 42 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
For ``--seconds`` (and at least two passes) a run alternates set-up
samples and untraced passes of the workload, each in a fresh
interpreter, and checks their output against the recorded reference.
Then, in this process, a counting pass counts integrand calls and, with
``--trace 1``, a traced pass records spans for the per-layer metrics.
Pass and call times never come from an instrumented pass.  The last line
of stdout is the result as JSON; the lines before it show every metric
by name and unit.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

from gate import Reference, check_workload, invocation_rows  # noqa: E402
from instrument import Patches, Tracer, count_integrands  # noqa: E402
from passes import differences, run_pass  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

MIN_PASSES = 2
SETUP_PER_PASS = 4
CHILD_TIMEOUT_S = 60
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import frachh.cli
from frachh.functions import builtin_function_corpus, builtin_weight_corpus
seed = int(sys.argv[1])
builtin_function_corpus(0.0, 1.0, seed)
builtin_weight_corpus(0.0, 1.0, seed)
print(time.perf_counter() - t0)
"""

STATEMENTS = ("aux-integrals", "bound-1-5", "bound-2-4", "bound-2-5",
              "bound-2-6", "bound-2-7", "fejer-classical", "fejer-fractional",
              "hh-classical", "hh-fractional", "identity-1-4", "identity-2-3",
              "lemma-1-6", "lemma-2-1")

# Pass and call times are per-layer metrics, not end-to-end ones: on the
# shared test host the same code's times drift by up to 2x within minutes,
# more than any bound allows (see README.md, Noise).
END_TO_END = (
    ("integrand_calls", "count"), ("conclusive_pct", "%"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (metric, unit, better, patched name it depends on)
PER_LAYER = (
    ("untraced.wall_s", "s", "lower", None),
    ("untraced.call_p50_ms", "ms", "lower", None),
    ("untraced.call_tail_ms", "ms", "lower", None),
    ("functions.sup_norm.calls", "count", "lower", "frachh.functions.sup_norm"),
    ("functions.sup_norm.distinct", "count", "lower", "frachh.functions.sup_norm"),
    ("functions.sup_norm.s", "s", "lower", "frachh.functions.sup_norm"),
    ("functions.f.calls", "count", "lower", "frachh.functions.builtin_function_corpus"),
    ("functions.deriv.calls", "count", "lower", "frachh.functions.builtin_function_corpus"),
    ("functions.g.calls", "count", "lower", "frachh.functions.builtin_weight_corpus"),
    ("functions.integrand_calls", "count", "lower", "frachh.functions.builtin_function_corpus"),
    ("functions.corpus_build.s", "s", "lower", "frachh.functions.builtin_function_corpus"),
    ("fracops.j.calls", "count", "lower", "frachh.fracops.j_left"),
    ("fracops.j.s", "s", "lower", "frachh.fracops.j_left"),
    ("fracops.j.self_s", "s", "lower", "frachh.fracops.j_left"),
    ("fracops.repeat_share", "ratio", "lower", "frachh.fracops.j_left"),
    ("numerics.integrate_singular.calls", "count", "lower", "frachh.numerics.integrate_singular"),
    ("numerics.integrate_singular.self_s", "s", "lower", "frachh.numerics.integrate_singular"),
    ("numerics.integrate_singular.evals", "count", "lower", "frachh.numerics.integrate_singular"),
    ("numerics.integrate_singular.evals_per_call.alpha_lt1", "count", "lower", "frachh.numerics.integrate_singular"),
    ("numerics.integrate_singular.evals_per_call.alpha_eq1", "count", "lower", "frachh.numerics.integrate_singular"),
    ("numerics.integrate_singular.evals_per_call.alpha_gt1", "count", "lower", "frachh.numerics.integrate_singular"),
    ("numerics.integrate_smooth.calls", "count", "lower", "frachh.numerics.integrate_smooth"),
    ("numerics.integrate_smooth.self_s", "s", "lower", "frachh.numerics.integrate_smooth"),
    ("numerics.integrate_smooth.evals", "count", "lower", "frachh.numerics.integrate_smooth"),
    ("numerics.integrate_smooth.tol_unmet", "count", "lower", "frachh.numerics.integrate_smooth"),
    ("numerics.CumulativeKernel.build.calls", "count", "lower", "frachh.numerics.CumulativeKernel.__init__"),
    ("numerics.CumulativeKernel.build.s", "s", "lower", "frachh.numerics.CumulativeKernel.__init__"),
    ("numerics.CumulativeKernel.build.evals", "count", "lower", "frachh.numerics.CumulativeKernel.__init__"),
    ("numerics.CumulativeKernel.call.calls", "count", "lower", "frachh.numerics.CumulativeKernel.__call__"),
    ("numerics.CumulativeKernel.call.s", "s", "lower", "frachh.numerics.CumulativeKernel.__call__"),
    *((f"inequalities.{ident}.{field}", unit, "lower", "frachh.cli.run_rows")
      for ident in STATEMENTS
      for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"),
                          ("retries", "count"))),
    ("cli.main.self_s", "s", "lower", "frachh.cli.main"),
    ("cli.inconclusive_rows", "count", "lower", None),
    ("cli.evaluations_reported", "count", "lower", None),
    ("cli.evaluations_coverage", "ratio", "higher", "frachh.functions.builtin_function_corpus"),
    ("trace.overhead_s", "s", "lower", None),
    ("trace.spans", "count", "lower", None),
)


def setup_sample(seed: int, env: dict) -> float:
    """Seconds to import frachh.cli and build both corpora on [0, 1]."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(seed)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def timed_pass(invocations: list, env: dict) -> dict:
    """One untraced pass in a fresh interpreter (passes.py)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "passes.py")],
                          input=json.dumps({"src": SRC,
                                            "invocations": invocations}),
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"timed pass failed:\n{done.stderr}")
    return json.loads(done.stdout)


def measure(invocations: list, seed: int, seconds: float, env: dict) -> dict:
    """Untraced passes until `seconds` have passed (at least MIN_PASSES),
    each after SETUP_PER_PASS set-up samples, so that both kinds of sample
    spread over the whole run.  Keeps the first pass's outputs and counts
    the output lines of later passes that differ from them."""
    setup_sample(seed, env)  # warm-up: file cache and bytecode
    setup, passes, mismatch = [], [], {}
    first = None
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        setup += [setup_sample(seed, env) for _ in range(SETUP_PER_PASS)]
        result = timed_pass(invocations, env)
        calls = [tuple(call) for call in result.pop("calls")]
        passes.append(result)
        if first is None:
            first = calls
            continue
        for i, lines in differences(first, calls).items():
            mismatch[i] = max(mismatch.get(i, 0), lines)
    return {"calls": first, "passes": passes, "setup": setup,
            "mismatch": mismatch}


def rows_of(calls) -> list[dict]:
    rows = []
    for call in calls:
        found, _ = invocation_rows(call[:3])
        rows += found or []
    return rows


def instrumented_pass(cli, invocations, untraced_calls, install):
    """One pass with `install(patches)` applied; returns the calls, the
    wall time, the names found missing and the output lines that differ
    from the untraced pass."""
    patches = Patches()
    install(patches)
    try:
        # through the module, so that a wrapped main is the one called
        calls, wall = run_pass(lambda argv: cli.main(argv), invocations)
    finally:
        patches.restore()
    changed = sum(differences(untraced_calls, calls).values())
    return calls, wall, patches.missing, changed


def tail_percentile(samples: int) -> int:
    """p95, or the highest percentile with ten samples beyond it, but
    never below the median (which is all 20 samples or fewer allow)."""
    beyond_ten = 100 * (samples - 10) // samples if samples > 10 else 0
    return max(50, min(95, beyond_ten))


def quantile(values: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer, counts: Counter, rows: list[dict],
                  missing: list[str], overhead_s: float,
                  untraced: dict) -> dict:
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    c = tracer.counts
    integrand = counts["f"] + counts["deriv"] + counts["g"]
    reported = sum(row["evaluations"] for row in rows)

    def per_call(band):
        n = c[f"singular.{band}.calls"]
        return c[f"singular.{band}.evals"] / n if n else 0.0

    values = {
        **untraced,
        "functions.sup_norm.calls": calls["functions.sup_norm"],
        "functions.sup_norm.distinct": len(tracer.keys.get("functions.sup_norm", ())),
        "functions.sup_norm.s": total["functions.sup_norm"],
        "functions.f.calls": counts["f"],
        "functions.deriv.calls": counts["deriv"],
        "functions.g.calls": counts["g"],
        "functions.integrand_calls": integrand,
        "functions.corpus_build.s": total["functions.corpus_build"],
        "fracops.j.calls": calls["fracops.j"],
        "fracops.j.s": total["fracops.j"],
        "fracops.j.self_s": self_time["fracops.j"],
        "fracops.repeat_share": (c["fracops.j.repeats"] / calls["fracops.j"]
                                 if calls["fracops.j"] else 0.0),
        "numerics.integrate_singular.calls": calls["numerics.integrate_singular"],
        "numerics.integrate_singular.self_s": self_time["numerics.integrate_singular"],
        "numerics.integrate_singular.evals": c["numerics.integrate_singular.evals"],
        "numerics.integrate_singular.evals_per_call.alpha_lt1": per_call("alpha_lt1"),
        "numerics.integrate_singular.evals_per_call.alpha_eq1": per_call("alpha_eq1"),
        "numerics.integrate_singular.evals_per_call.alpha_gt1": per_call("alpha_gt1"),
        "numerics.integrate_smooth.calls": calls["numerics.integrate_smooth"],
        "numerics.integrate_smooth.self_s": self_time["numerics.integrate_smooth"],
        "numerics.integrate_smooth.evals": c["numerics.integrate_smooth.evals"],
        "numerics.integrate_smooth.tol_unmet": c["numerics.integrate_smooth.tol_unmet"],
        "numerics.CumulativeKernel.build.calls": calls["numerics.CumulativeKernel.build"],
        "numerics.CumulativeKernel.build.s": total["numerics.CumulativeKernel.build"],
        "numerics.CumulativeKernel.build.evals": c["numerics.CumulativeKernel.build.evals"],
        "numerics.CumulativeKernel.call.calls": calls["numerics.CumulativeKernel.call"],
        "numerics.CumulativeKernel.call.s": total["numerics.CumulativeKernel.call"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.inconclusive_rows": sum(r["status"] == "Inconclusive" for r in rows),
        "cli.evaluations_reported": reported,
        "cli.evaluations_coverage": reported / integrand if integrand else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.spans),
    }
    for ident in STATEMENTS:
        name = "inequalities." + ident
        values[name + ".calls"] = calls[name]
        values[name + ".s"] = total[name]
        values[name + ".self_s"] = self_time[name]
        values[name + ".retries"] = c[name + ".retries"]
    metrics = {}
    for metric, unit, _, source in PER_LAYER:
        if source in missing:
            metrics[metric] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics


def write_spans(tracer: Tracer, workload: str, seed: int) -> str:
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.csv.gz")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8", newline="",
                   compresslevel=1) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("index", "name", "start_s", "end_s", "parent"))
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            out.writerow((i, name, f"{start - origin:.9f}",
                          f"{end - origin:.9f}", parent))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frachh", "cli.py")):
        print(f"error: no frachh sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("FRACHH_TOL", None)  # the default tolerance, always
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    import frachh.cli as cli

    reference = Reference()
    invocations, cells = plan(args.workload, args.seed, reference.cells())

    timed = measure(invocations, args.seed, args.seconds, env)
    untraced = timed["calls"]
    attempted, problems = check_workload(args.workload, args.seed, untraced,
                                         cells, reference)
    for index, lines in timed["mismatch"].items():
        problems += [f"call {index}: a later untraced pass differs"] * lines
    pass_s = [p["pass_s"] for p in timed["passes"]]
    wall_s = statistics.median(pass_s)
    # each call's median time over the run's passes
    call_ms = [statistics.median(times) * 1000.0
               for times in zip(*(p["call_s"] for p in timed["passes"]))]

    counts: Counter = Counter()
    calls, _, missing, changed = instrumented_pass(
        cli, invocations, untraced, lambda p: count_integrands(p, counts))
    problems += ["counting pass output differs"] * changed
    rows = rows_of(untraced)
    reported = sum(row["evaluations"] for row in rows_of(calls))
    integrand = counts["f"] + counts["deriv"] + counts["g"]
    if integrand == 0 or integrand < reported:
        print(f"error: counted {integrand} integrand calls but the output "
              f"reports {reported}; the counters miss calls", file=sys.stderr)
        return 1
    tail = tail_percentile(len(call_ms))
    timings = {"untraced.wall_s": wall_s,
               "untraced.call_p50_ms": statistics.median(call_ms),
               "untraced.call_tail_ms": quantile(call_ms, tail)}
    inconclusive = sum(r["status"] == "Inconclusive" for r in rows)
    if args.trace:
        tracer = Tracer()
        _, traced_wall, traced_missing, changed = instrumented_pass(
            cli, invocations, untraced, tracer.install)
        problems += ["traced pass output differs"] * changed
        missing += traced_missing
        metrics = layer_metrics(tracer, counts, rows, missing,
                                traced_wall - wall_s, timings)
        spans_path = write_spans(tracer, args.workload, args.seed)
    else:
        values = {
            "integrand_calls": integrand,
            "conclusive_pct": (100.0 * (len(rows) - inconclusive) / len(rows)
                               if rows else 0.0),
            "peak_rss_mb": statistics.median(
                p["maxrss_kb"] for p in timed["passes"]) / 1024.0,
            "setup_s": statistics.median(timed["setup"]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    failed = min(attempted, len(problems))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  untraced passes (s): "
          f"{' '.join(f'{t:.3f}' for t in pass_s)}")
    print(f"  calls {len(call_ms)} (call_tail_ms is p{tail}), "
          f"setup samples (s): "
          f"{' '.join(f'{t:.4f}' for t in timed['setup'])}")
    for name, value in timings.items():
        print(f"  {name} {value:.6g}")
    print(f"  rows {len(rows)}, inconclusive_rows {inconclusive}, reported "
          f"evaluations {reported}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    for name in missing:
        print(f"  MISSING {name}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name:58} {metric['value']!s:>24} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
