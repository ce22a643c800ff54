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

and both kernel integrals of -log on [1, 3] at order 0.1 (NEG_LOG).

For tests/test_oracle.py it records the five closed forms of
inequalities.WEIGHTED_BOUNDS, as printed, at each order in BOUND_ORDERS
(at most 1 for bound-2-7) and each [a, b] in BOUND_INTERVALS, with
||g||_inf = BOUND_GSUP, |f'| at the ends of f' = 2x + 0.3 (computed in
doubles, as the tests pass them) and each q in BOUND_QS for the forms
that read q.  For the kernel calibration in tests/test_numerics.py it
records K(t) = F(t-a) - F(b-t), F(x) = int_0^x v^(alpha-1) g(a+v) dv, of
each weight in KERNEL_WEIGHTS at each order in KERNEL_ORDERS on each
[a, b] in KERNEL_INTERVALS, at t = a + (b-a) i/200, i = 0..200.  With
h = (b-a)/2, g(a+v) is a polynomial in h - v, so F is x^alpha times a
polynomial in x:

    (s-m)^2:      F(x) = x^alpha (h^2/alpha - 2hx/(alpha+1) + x^2/(alpha+2))
    (s-m)^4 + 1:  F(x) = x^alpha ((h^4+1)/alpha - 4h^3 x/(alpha+1)
                         + 6h^2 x^2/(alpha+2) - 4h x^3/(alpha+3)
                         + x^4/(alpha+4))

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
# integer orders run the end rule too; tests/test_numerics.py reads the
# orders and intervals from the keys of exact.json
END_RULE_ORDERS = (1e-8, 1e-4, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9,
                   1.0, 1.25, 2.0, 2.5, 3.0, 5.5, 11.3)
# -log on [1, 3] at order 0.1, where the nested rule's difference overshot
# the error ~1e7 times
NEG_LOG = (1.0, 3.0, 0.1)
END_RULE_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6), (10.0, 10.5),
                      (0.0, 10.0))
BOUND_ORDERS = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 5.0)
BOUND_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6))
BOUND_GSUP = 1.7
BOUND_QS = (2.0, 3.0)
KERNEL_ORDERS = (0.1, 0.5, 1.5, 5.0)
KERNEL_INTERVALS = ((0.0, 1.0), (1.0, 3.0))
# (k, c) of each weight g = (s-m)^k + c
KERNEL_WEIGHTS = {"square": (2, 0), "quartic-plus-one": (4, 1)}
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


def neg_log_integrals(a: float, b: float, alpha: float) -> dict:
    """The upper- and lower-kernel integrals of -log over [a, b], each in
    u = (b-t)^alpha (resp. (t-a)^alpha), which removes the kernel."""
    order, lo, hi = mpf(alpha), mpf(a), mpf(b)
    power, top = 1 / order, (hi - lo) ** order
    values = {}
    for side, at in (("upper", lambda u: hi - u ** power),
                     ("lower", lambda u: lo + u ** power)):
        value, error = mp.quad(lambda u: -mp.log(at(u)), [0, top], error=True)
        if not error <= mpf(10) ** (10 - DPS) * abs(value):
            raise ArithmeticError(f"quadrature error {error} ({side})")
        values[side] = float(value / order)
    return values


def bound_forms(a: float, b: float, alpha: float) -> dict:
    """{ident: value} of the forms that read no q, {ident: {q: value}}
    of the others; bound-2-7 only at alpha <= 1."""
    da, db = (mpf(abs(2.0 * x + 0.3)) for x in (a, b))
    w, order, gsup = mpf(b) - mpf(a), mpf(alpha), mpf(BOUND_GSUP)
    gam, halving = mp.gamma(order + 1), 1 - mpf(2) ** -order
    forms = {
        "bound-1-5": float(w / (2 * (order + 1)) * halving * (da + db)),
        "bound-2-4": float(w ** (order + 1) * gsup / ((order + 1) * gam)
                           * halving * (da + db))}
    for q in map(mpf, BOUND_QS):
        p = q / (q - 1)
        mean = ((da ** q + db ** q) / 2) ** (1 / q)
        holder = gsup * w ** (order + 1) / ((order * p + 1) ** (1 / p) * gam)
        values = {
            "bound-2-5": 2 * w ** (order + 1) * gsup
            / (w ** (1 / q) * (order + 1) * gam) * halving * mean,
            "bound-2-6": 2 ** (1 / p) * holder
            * (1 - mpf(2) ** (-order * p)) ** (1 / p) * mean,
            "bound-2-7": holder * mean if alpha <= 1.0 else None}
        for ident, value in values.items():
            if value is not None:
                forms.setdefault(ident, {})[repr(float(q))] = float(value)
    return forms


def kernel_values(a: float, b: float, alpha: float, degree: int,
                  shift: int) -> list:
    """K(t) at t = a + (b-a) i/200 of g = (s-m)^degree + shift."""
    order, lo, hi = mpf(alpha), mpf(a), mpf(b)
    h = (hi - lo) / 2

    def big_f(x):
        terms = [(-1) ** j * mp.binomial(degree, j) * h ** (degree - j)
                 * x ** j / (order + j) for j in range(degree + 1)]
        return x ** order * (mp.fsum(terms) + shift / order)

    ts = [mpf(a + (b - a) * i / 200) for i in range(201)]
    return [float(big_f(t - lo) - big_f(hi - t)) for t in ts]


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
    a, b, alpha = NEG_LOG
    neg_log = {f"{a!r},{b!r}": {repr(alpha): neg_log_integrals(a, b, alpha)}}
    bounds = {}
    for a, b in BOUND_INTERVALS:
        for alpha in BOUND_ORDERS:
            for ident, value in bound_forms(a, b, alpha).items():
                bounds.setdefault(ident, {}).setdefault(
                    f"{a!r},{b!r}", {})[repr(alpha)] = value
    kernel = {label: {f"{a!r},{b!r}": {
        repr(alpha): kernel_values(a, b, alpha, degree, shift)
        for alpha in KERNEL_ORDERS} for a, b in KERNEL_INTERVALS}
        for label, (degree, shift) in KERNEL_WEIGHTS.items()}
    return {"upper": upper, "beta": beta, "exp": exp, "neg-log": neg_log,
            "bounds": bounds, "kernel": kernel}


def main() -> None:
    mp.dps = DPS
    EXACT.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
