"""End-to-end acceptance suite.

One test per shipping criterion, each a self-contained run over the
builtin corpus with its tolerance and runtime cap stated inline.  The
pytest -v line for each test is the pass/fail record; every test also
prints a one-line summary with the measured statistics (visible with
-s or on failure).

Regression constants were recomputed with an independent 50-digit
Beta-function evaluation before being hard-coded here.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from frachh.cli import DEFAULT_ALPHA_GRID
from frachh.fracops import FracSetting
from frachh.functions import (HolderPair, builtin_function_corpus,
                              builtin_weight_corpus)
from frachh.inequalities import (Cell, Status, aux_integrals,
                                 check_symmetry_lemma, fejer_classical,
                                 fejer_fractional, scalar_power_lemma,
                                 weighted_bound, weighted_trapezoid_identity)
from frachh.numerics import KernelSide, gamma, integrate_singular
from frachh.oracle import beta_reference

INTERVALS = ((0.0, 1.0), (1.0, 3.0))


def _corpora(interval):
    return (builtin_function_corpus(*interval),
            builtin_weight_corpus(*interval))


def test_criterion_01_symmetry_lemma_suite():
    """Relative gap <= 1e-8 for every weight x order x interval; <= 5 s."""
    start = time.perf_counter()
    checks, worst = 0, 0.0
    for interval in INTERVALS:
        weights = builtin_weight_corpus(*interval)
        assert len(weights) >= 6
        for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
            s = FracSetting(interval[0], interval[1], alpha)
            for g in weights:
                report = check_symmetry_lemma(g, s)
                gap = (abs(report.lhs - report.rhs)
                       / max(abs(report.lhs), abs(report.rhs), 1.0))
                assert gap <= 1e-8, (g.label, alpha, interval)
                assert report.status is Status.HOLDS
                checks += 1
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"criterion 1 PASS: {checks} checks, worst gap {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_weighted_sandwich_suite():
    """>= 100 combinations, zero Violated, <= 2% Inconclusive; <= 30 s."""
    start = time.perf_counter()
    counts = {status: 0 for status in Status}
    for interval in INTERVALS:
        functions, weights = _corpora(interval)
        for alpha in DEFAULT_ALPHA_GRID:
            s = FracSetting(interval[0], interval[1], alpha)
            for f in functions:
                for g in weights:
                    counts[fejer_fractional(f, g, s).status] += 1
    total = sum(counts.values())
    elapsed = time.perf_counter() - start
    assert total >= 100
    assert counts[Status.VIOLATED] == 0
    assert counts[Status.INCONCLUSIVE] <= 0.02 * total
    assert elapsed <= 30.0
    print(f"criterion 2 PASS: {total} combinations, "
          f"{counts[Status.HOLDS]} hold, "
          f"{counts[Status.INCONCLUSIVE]} inconclusive, {elapsed:.2f}s")


def test_criterion_03_identity_residuals():
    """Both defect identities: residual <= 1e-6 * scale, corpus-wide."""
    checks, worst = 0, 0.0
    for interval in INTERVALS:
        functions, weights = _corpora(interval)
        deriv_fs = [f for f in functions if f.deriv is not None]
        for alpha in DEFAULT_ALPHA_GRID:
            s = FracSetting(interval[0], interval[1], alpha)
            memo = {}
            for g in weights:  # each kernel K built once, shared below
                Cell(None, g, s, 1e-9, memo).kernel
            for f in deriv_fs:
                reports = [weighted_trapezoid_identity(f, None, s)]
                reports += [weighted_trapezoid_identity(f, g, s, memo=memo)
                            for g in weights]
                for r in reports:
                    rel = (abs(r.lhs - r.rhs)
                           / max(abs(r.lhs), abs(r.rhs), 1.0))
                    assert rel <= 1e-6, (f.label, alpha, interval)
                    assert r.status is not Status.VIOLATED
                    checks += 1
                    worst = max(worst, rel)
    print(f"criterion 3 PASS: {checks} identities, worst residual "
          f"{worst:.2e} of scale")


def test_criterion_04_bound_dominance():
    """observed <= bound + budget across every eligible corpus entry.

    The power-mean bound's printed form carries a 1/(b-a)^(1/q) factor
    that makes it fail off unit-width intervals (demonstrated in
    test_inequalities), so it is exercised on [0, 1]; the four
    dilation-sound bounds run on both intervals.
    """
    holder_pairs = (HolderPair(2.0, 2.0), HolderPair(4.0, 4.0 / 3.0))
    checks, violations, min_slack = 0, 0, math.inf

    def record(report, context):
        nonlocal checks, violations, min_slack
        checks += 1
        min_slack = min(min_slack, report.slack)
        assert report.observed <= report.bound + report.error_budget, context
        if report.status is Status.VIOLATED:
            violations += 1

    for interval in INTERVALS:
        functions, weights = _corpora(interval)
        eligible = [f for f in functions
                    if f.deriv is not None and f.admits_deriv_power(1.0)]
        for alpha in DEFAULT_ALPHA_GRID:
            s = FracSetting(interval[0], interval[1], alpha)
            for f in eligible:
                record(weighted_bound("bound-1-5", f, None, s),
                       (f.label, alpha))
                for g in weights:
                    record(weighted_bound("bound-2-4", f, g, s),
                           (f.label, g.label, alpha))
                    if interval == (0.0, 1.0):
                        for q in (1.5, 2.0, 4.0):
                            if f.admits_deriv_power(q):
                                record(weighted_bound(
                                           "bound-2-5", f, g, s,
                                           HolderPair.from_q(q)),
                                       (f.label, g.label, alpha, q))
                    for pair in holder_pairs:
                        if not f.admits_deriv_power(pair.q):
                            continue
                        record(weighted_bound("bound-2-6", f, g, s, pair),
                               (f.label, g.label, alpha, pair))
                        if s.alpha <= 1.0:
                            record(
                                weighted_bound("bound-2-7", f, g, s, pair),
                                (f.label, g.label, alpha, pair))
    assert violations == 0
    print(f"criterion 4 PASS: {checks} dominance checks, zero violations, "
          f"min slack {min_slack:.3e}")


def test_criterion_05_reduction_exactness():
    """alpha = 1 and g = 1 degenerations agree to 1e-10 relative."""
    worst = 0.0

    def rel(x, y):
        return abs(x - y) / max(abs(x), abs(y), 1e-300)

    for interval in INTERVALS:
        functions, weights = _corpora(interval)
        s1 = FracSetting(interval[0], interval[1], 1.0)
        for f in functions:
            for g in weights:
                frac = fejer_fractional(f, g, s1)
                classical = fejer_classical(f, g)
                for u, v in ((frac.lhs, 2.0 * classical.lhs),
                             (frac.mid, 2.0 * classical.mid),
                             (frac.rhs, 2.0 * classical.rhs)):
                    worst = max(worst, rel(u, v))
                    assert rel(u, v) <= 1e-10, (f.label, g.label, interval)
        one = weights[0]
        assert one.label == "one"
        for alpha in DEFAULT_ALPHA_GRID:
            s = FracSetting(interval[0], interval[1], alpha)
            w = 2.0 * s.width ** alpha / gamma(alpha + 1.0)
            for f in functions:
                weighted = fejer_fractional(f, one, s)
                plain = fejer_fractional(f, None, s)
                for u, v in ((weighted.lhs, w * plain.lhs),
                             (weighted.mid, w * plain.mid),
                             (weighted.rhs, w * plain.rhs)):
                    worst = max(worst, rel(u, v))
                    assert rel(u, v) <= 1e-10, (f.label, alpha, interval)
    print(f"criterion 5 PASS: worst relative deviation {worst:.2e}")


def test_criterion_06_closed_form_regressions():
    """aux integrals and the Beta reference agree with quadrature."""
    for interval in INTERVALS:
        for alpha in (0.5, 1.0, 2.0):
            e, f = aux_integrals(FracSetting(interval[0], interval[1],
                                             alpha))
            assert e.status is Status.HOLDS and f.status is Status.HOLDS
            assert abs(e.lhs - e.rhs) <= 1e-10 * max(1.0, abs(e.lhs))
            assert abs(f.lhs - f.rhs) <= 1e-10 * max(1.0, abs(f.lhs))
    e, f = aux_integrals(FracSetting(0.0, 1.0, 1.0))
    assert e.lhs == pytest.approx(5.0 / 24.0, rel=1e-15)
    assert f.lhs == pytest.approx(1.0 / 24.0, rel=1e-15)

    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.5):
        for n in range(7):
            exact = beta_reference(alpha, n)
            raw = integrate_singular(lambda t, n=n: t ** n, 0.0, 1.0, alpha,
                                     KernelSide.UPPER_SINGULAR, 1e-10)
            rel = abs(raw.value / gamma(alpha) - exact) / abs(exact)
            assert rel <= 1e-8, (alpha, n)
            worst = max(worst, rel)
    print(f"criterion 6 PASS: closed forms reproduced, worst Beta "
          f"deviation {worst:.2e}")


def test_criterion_07_scalar_lemma_fuzz():
    """1e5 seeded random triples, zero violations, <= 1 s."""
    rng = random.Random(123456789)
    triples = []
    for _ in range(100_000):
        x, y = rng.uniform(0.0, 1e3), rng.uniform(0.0, 1e3)
        triples.append((min(x, y), max(x, y), 1.0 - rng.random()))  # (0, 1]
    start = time.perf_counter()
    ok = all(scalar_power_lemma(a, b, alpha).status is Status.HOLDS
             for a, b, alpha in triples)
    elapsed = time.perf_counter() - start
    assert ok
    assert elapsed <= 1.0
    print(f"criterion 7 PASS: 100000 triples, zero violations, "
          f"{elapsed:.2f}s")


def test_criterion_08_gamma_regression():
    """Three pinned values to 1e-12 relative."""
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    print("criterion 8 PASS: gamma values exact to 1e-12")


def test_criterion_09_worked_anchor():
    """The square/parabolic half-order run reproduces its constants.

    Anchors from the Beta closed forms: lhs = 1/(2 sqrt(pi) B(2,3/2)
    ... assembled exactly as 0.25 * W, mid = (B(4,3/2) + 4/63)/sqrt(pi),
    rhs = 0.5 * W with W = 2 B(2,3/2)/sqrt(pi).
    """
    functions, weights = _corpora((0.0, 1.0))
    f = {x.label: x for x in functions}["sq"]
    g = {x.label: x for x in weights}["parabolic"]
    r = fejer_fractional(f, g, FracSetting(0.0, 1.0, 0.5))
    assert r.status is Status.HOLDS
    assert r.lhs == pytest.approx(0.075225277806367505, abs=1e-6)
    assert r.mid == pytest.approx(0.093136058236455006, abs=1e-6)
    assert r.rhs == pytest.approx(0.15045055561273501, abs=1e-6)
    # far tighter in practice; keep a regression-grade pin as well
    assert r.lhs == pytest.approx(0.075225277806367505, rel=1e-9)
    assert r.mid == pytest.approx(0.093136058236455006, rel=1e-9)
    assert r.rhs == pytest.approx(0.15045055561273501, rel=1e-9)
    print(f"criterion 9 PASS: lhs={r.lhs:.10f} mid={r.mid:.10f} "
          f"rhs={r.rhs:.10f}")


def test_criterion_10_full_corpus_run():
    """Full CLI corpus run: exit 0, <= 60 s, byte-deterministic."""
    args = [sys.executable, "-m", "frachh", "corpus", "--format", "csv"]
    outputs, timings = [], []
    for _ in range(2):
        start = time.perf_counter()
        proc = subprocess.run(args, capture_output=True)
        timings.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
        assert timings[-1] <= 60.0
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().strip().splitlines()
    assert len(rows) > 1000
    print(f"criterion 10 PASS: {len(rows) - 1} rows, identical bytes, "
          f"{max(timings):.1f}s worst run")
