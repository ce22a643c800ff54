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
for n = 0..6, beta_reference's closed form on [0, 1].  For the end
rule's calibration in tests/test_numerics.py it records, for each order
in END_RULE_ORDERS and each [a, b] in END_RULE_INTERVALS (w = b - a),
the two kernel integrals of exp in closed form:

    int_a^b (b-t)^(alpha-1) e^t dt = e^b gamma(alpha, w)           (upper)
    int_a^b (t-a)^(alpha-1) e^t dt = e^a w^alpha 1F1(alpha; alpha+1; w)/alpha
                                                                   (lower)

Every value is computed at DPS digits and rounded once to a double.
"""

from __future__ import annotations

import json
from pathlib import Path

from mpmath import mp, mpf

from frachh.functions import builtin_function_corpus

EXACT = Path(__file__).resolve().with_name("exact.json")
ALPHAS = (0.25, 0.5, 1.0, 1.5, 2.5)
DEGREES = range(7)
# no integer order, where integrate_singular takes the product instead of
# the end rule; tests/test_numerics.py reads the orders and intervals from
# the keys of exact.json
END_RULE_ORDERS = (1e-8, 1e-4, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9,
                   1.25, 2.5, 5.5, 11.3)
END_RULE_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6), (10.0, 10.5),
                      (0.0, 10.0))
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


def exp_integrals(a: float, b: float, alpha: float) -> dict:
    """The upper- and lower-kernel integrals of exp over [a, b]."""
    order, lo, hi = mpf(alpha), mpf(a), mpf(b)
    w = hi - lo
    return {"upper": float(mp.exp(hi) * mp.gammainc(order, 0, w)),
            "lower": float(mp.exp(lo) * w ** order
                           * mp.hyp1f1(order, order + 1, w) / order)}


def record() -> dict:
    upper = {}
    for f in builtin_function_corpus(0.0, 1.0):
        fn = _checked(f.label, TWINS.get(f.label, f.fn))
        upper[f.label] = {repr(alpha): upper_integral(fn, alpha)
                          for alpha in ALPHAS}
    beta = {repr(alpha): [float(mp.gamma(n + 1) / mp.gamma(n + 1 + mpf(alpha)))
                          for n in DEGREES]
            for alpha in ALPHAS}
    exp = {"upper": {}, "lower": {}}
    for a, b in END_RULE_INTERVALS:
        for alpha in END_RULE_ORDERS:
            for side, value in exp_integrals(a, b, alpha).items():
                exp[side].setdefault(f"{a!r},{b!r}", {})[repr(alpha)] = value
    return {"upper": upper, "beta": beta, "exp": exp}


def main() -> None:
    mp.dps = DPS
    EXACT.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
