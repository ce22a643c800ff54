#!/usr/bin/env python3
"""Sweep the defect bounds across orders and report their tightness.

For one function/weight pair the script prints, per order alpha, the
weighted trapezoid defect together with each bound that applies and
the ratio defect/bound (1.0 would be a sharp bound).  Useful for
eyeballing which bound wins where; the Holder-type bound with the
alpha <= 1 restriction drops out of the table past its range.

    python scripts/tightness_sweep.py --f exp --g parabolic --q 2
"""

import argparse
import math
import sys

from frachh.fracops import FracSetting
from frachh.functions import (HolderPair, builtin_function_corpus,
                              builtin_weight_corpus)
from frachh.inequalities import WEIGHTED_BOUNDS, weighted_bound

ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


def pick(pool, label, what):
    for item in pool:
        if item.label == label:
            return item
    names = ", ".join(sorted(item.label for item in pool))
    sys.exit(f"unknown {what} {label!r}; available: {names}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--f", default="exp")
    ap.add_argument("--g", default="parabolic")
    ap.add_argument("--a", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    f = pick(builtin_function_corpus(args.a, args.b, args.seed), args.f,
             "function")
    g = pick(builtin_weight_corpus(args.a, args.b, args.seed), args.g,
             "weight")
    if f.deriv is None:
        sys.exit(f"{f.label!r} carries no derivative, pick another function")
    pair = HolderPair.from_q(args.q)

    print(f"f={f.label} g={g.label} [{args.a:g}, {args.b:g}] q={args.q:g} "
          f"(ratios are defect/bound)")
    header = (f"{'alpha':>6} {'defect':>12} {'plain':>8} {'sup':>8} "
              f"{'pow-mean':>9} {'holder':>8} {'low-ord':>8}")
    print(header)
    print("-" * len(header))
    widths = (8, 8, 9, 8, 8)  # columns of bound-1-5 .. bound-2-7
    for alpha in ALPHAS:
        s = FracSetting(args.a, args.b, alpha)
        memo = {}  # bounds of one weight share one defect per order
        reports = {ident: weighted_bound(
                       ident, f, g if "g" in form.reads else None, s, pair,
                       memo=memo)
                   for ident, form in WEIGHTED_BOUNDS.items()
                   if alpha <= form.max_alpha}
        cells = [f"{alpha:>6g}", f"{reports['bound-2-4'].observed:>12.5e}"]
        for ident, width in zip(WEIGHTED_BOUNDS, widths):
            r = reports.get(ident)
            cells.append(f"{r.observed / r.bound:>{width}.3f}" if r
                         else f"{'-':>{width}}")
        print(" ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
