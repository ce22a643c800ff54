"""Record the exact values that tests/test_oracle.py checks the main path
and the Beta closed form against.

Run from the repository root as

    PYTHONPATH=src python tests/data/record_exact.py

to rewrite exact.json beside this file.  It needs mpmath; the tests
read the stored file and import neither mpmath nor this script.  For
each entry f of builtin_function_corpus(0, 1) and each order alpha in
ALPHAS it records the upper-kernel integral

    int_0^1 (1-t)^(alpha-1) f(t) dt = (1/alpha) int_0^1 f(1 - u^(1/alpha)) du,

the kernel removed by u = (1-t)^alpha and the range split at
u = (1/2)^alpha, the image of the midpoint, where abs and plin have
their kink.  For each alpha it also records Gamma(n+1)/Gamma(n+1+alpha)
for n = 0..6, beta_reference's closed form on [0, 1].  Every value is
computed at DPS digits and rounded once to a double.
"""

from __future__ import annotations

import json
from pathlib import Path

from mpmath import mp, mpf

from frachh.functions import builtin_function_corpus

EXACT = Path(__file__).resolve().with_name("exact.json")
ALPHAS = (0.25, 0.5, 1.0, 1.5, 2.5)
DEGREES = range(7)
DPS = 40
# the corpus entries whose own code goes through math's double-precision
# functions; every other entry is arithmetic and evaluates at an mpf
TWINS = {"exp": mp.exp, "exp-neg": lambda x: mp.exp(-x), "cosh": mp.cosh}


def _checked(label, fn):
    def value(x):
        y = fn(x)
        if not isinstance(y, mp.mpf):
            raise TypeError(f"{label} rounds through a double: give it a "
                            "twin in TWINS")
        return y
    return value


def upper_integral(fn, alpha: float) -> float:
    """int_0^1 (1-t)^(alpha-1) fn(t) dt, rounded once to a double."""
    order = mpf(alpha)
    power = 1 / order
    value, error = mp.quad(lambda u: fn(1 - u ** power),
                           [0, mpf(0.5) ** order, 1], error=True)
    if not error <= mpf(10) ** (10 - DPS) * abs(value):
        raise ArithmeticError(f"quadrature error {error} at alpha {alpha}")
    return float(value / order)


def record() -> dict:
    upper = {}
    for f in builtin_function_corpus(0.0, 1.0):
        fn = _checked(f.label, TWINS.get(f.label, f.fn))
        upper[f.label] = {repr(alpha): upper_integral(fn, alpha)
                          for alpha in ALPHAS}
    beta = {repr(alpha): [float(mp.gamma(n + 1) / mp.gamma(n + 1 + mpf(alpha)))
                          for n in DEGREES]
            for alpha in ALPHAS}
    return {"upper": upper, "beta": beta}


def main() -> None:
    mp.dps = DPS
    EXACT.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
