#!/usr/bin/env python3
"""Show how the power-mean defect bound behaves under interval dilation.

The bound carries a 1/(b-a)^(1/q) factor, so it scales like
(b-a)^(alpha + 1 - 1/q) while the defect itself scales like
(b-a)^(alpha + 1) times the derivative growth.  On intervals wider
than 1 the factor works against the bound and it can drop below the
observed defect; removing the factor (the "rescaled" column) restores
dominance everywhere we have looked.  Width 1 is the break-even point,
which is why the bound suite pins this bound to unit width.

    python scripts/width_scaling_demo.py --alpha 0.5 --q 1.5
"""

import argparse
import sys

from frachh.fracops import FracSetting
from frachh.functions import (HolderPair, builtin_function_corpus,
                              builtin_weight_corpus)
from frachh.inequalities import Status, weighted_bound

WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--f", default="quad-rand")
    ap.add_argument("--g", default="one")
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--q", type=float, default=1.5)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    print(f"f={args.f} g={args.g} alpha={args.alpha:g} q={args.q:g}, "
          f"intervals [0, w]")
    header = (f"{'width':>6} {'defect':>12} {'bound':>12} {'slack':>10} "
              f"{'rescaled':>12} {'slack':>10} {'status':>12}")
    print(header)
    print("-" * len(header))
    flipped = False
    for width in WIDTHS:
        fs = {f.label: f for f in builtin_function_corpus(0.0, width,
                                                          args.seed)}
        ws = {w.label: w for w in builtin_weight_corpus(0.0, width,
                                                        args.seed)}
        if args.f not in fs or args.g not in ws:
            sys.exit(f"unknown labels; have {sorted(fs)} and {sorted(ws)}")
        s = FracSetting(0.0, width, args.alpha)
        r = weighted_bound("bound-2-5", fs[args.f], ws[args.g], s,
                           HolderPair.from_q(args.q))
        rescaled = r.bound * width ** (1.0 / args.q)
        flipped = flipped or r.status is Status.VIOLATED
        print(f"{width:>6g} {r.observed:>12.5e} {r.bound:>12.5e} "
              f"{r.slack:>10.3g} {rescaled:>12.5e} "
              f"{rescaled - r.observed:>10.3g} {r.status.value:>12}")
    if flipped:
        print("\nthe printed form loses dominance once the width passes 1; "
              "the rescaled form keeps a positive slack")
    return 0


if __name__ == "__main__":
    sys.exit(main())
