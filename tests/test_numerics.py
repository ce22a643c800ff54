"""Quadrature engine and cumulative kernel tests.

Closed-form values used as expectations were recomputed independently
(mpmath at 50 digits) before being frozen here.
"""

import bisect
import functools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import frachh.numerics
from frachh.fracops import FracSetting, j_left, j_right
from frachh.functions import builtin_function_corpus, builtin_weight_corpus
from frachh.numerics import (DEFAULT_TOL, CumulativeKernel, DomainError,
                             EvaluationError, Integrand, KernelSide,
                             MAX_PANELS, QuadResult, _chebyshev, _end_nodes,
                             _end_rule, _gk15_nodes, _subtracted, _tail,
                             check_interval, check_order, gamma,
                             integrate_odd, integrate_singular,
                             integrate_smooth, integrate_symmetric)
from reference import beta_reference

SQRT_PI = 1.7724538509055160273

# the grid of the kernel calibration; test_inequalities checks the
# exact identity values on the same grid
CALIBRATION_ALPHAS = (0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.5, 5.0)
CALIBRATION_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6), (0.0, 10.0),
                         (10.0, 10.5))
# the calibration of integrate_singular's end rule: non-integer orders in
# [1e-8, 1/2], log-uniform, in (1/2, 1), log-uniform in 1 - alpha, and in
# (1, 12], log-uniform in alpha - 1; integer orders run the same loop, and
# the calibrations take them as examples
END_RULE_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6), (10.0, 10.5))
NON_INTEGER_ORDERS = st.one_of(
    st.floats(-8.0, math.log10(0.5)).map(lambda e: 10.0 ** e),
    st.floats(-8.0, math.log10(0.5)).map(lambda e: 1.0 - 10.0 ** e),
    st.floats(-8.0, math.log10(11.0)).map(lambda e: 1.0 + 10.0 ** e),
).filter(lambda alpha: not alpha.is_integer())
# the end rule's calibration for exp, against the closed forms that
# tests/data/record_exact.py stores in exact.json, on the orders and
# intervals it keys them by
EXACT_EXP = json.loads((Path(__file__).resolve().parent / "data"
                        / "exact.json").read_text(encoding="utf-8"))["exp"]
EXP_INTERVALS = tuple(tuple(map(float, key.split(",")))
                      for key in EXACT_EXP["upper"])
EXP_ORDERS = tuple(map(float, next(iter(EXACT_EXP["upper"].values()))))
NEG_LOG = json.loads((Path(__file__).resolve().parent / "data"
                      / "exact.json").read_text(encoding="utf-8"))["neg-log"]


def _calibration_cases():
    for interval in CALIBRATION_INTERVALS:
        for alpha in CALIBRATION_ALPHAS:
            a, b = interval
            yield pytest.param(alpha, interval, id=f"{alpha:g}-[{a:g},{b:g}]")


class TestGamma:
    def test_integer_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)
        assert gamma(1.5) == pytest.approx(0.5 * SQRT_PI, rel=1e-12)

    def test_reflection_product(self):
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        x = 0.25
        assert gamma(x) * gamma(1.0 - x) == pytest.approx(
            math.pi / math.sin(math.pi * x), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)

    @pytest.mark.parametrize("big", [200.0, math.inf])
    def test_overflow_rejected(self, big):
        with pytest.raises(OverflowError):
            gamma(big)


class TestIntegrateSmooth:
    def test_monomial(self):
        r = integrate_smooth(lambda x: x * x, 0.0, 1.0, 1e-10)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert r.tolerance_met

    def test_constant(self):
        r = integrate_smooth(lambda x: 1.0, 2.0, 5.0, 1e-10)
        assert r.value == pytest.approx(3.0, abs=1e-12)

    def test_parabola_arch(self):
        r = integrate_smooth(lambda x: x * (1.0 - x), 0.0, 1.0, 1e-10)
        assert r.value == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_transcendental(self):
        r = integrate_smooth(math.exp, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_result_fields(self):
        r = integrate_smooth(math.cos, 0.0, 2.0, 1e-9)
        assert isinstance(r, QuadResult)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations >= 1

    def test_nonfinite_integrand_reported_with_abscissa(self):
        def h(x):
            return math.inf if x > 0.7 else 1.0

        with pytest.raises(EvaluationError) as info:
            integrate_smooth(h, 0.0, 1.0, 1e-9)
        assert info.value.abscissa > 0.7
        assert math.isinf(info.value.value)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_smooth(math.exp, 1.0, 1.0, 1e-9)
        with pytest.raises(DomainError):
            integrate_smooth(math.exp, 2.0, 1.0, 1e-9)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            integrate_smooth(math.exp, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_smooth(math.exp, 0.0, 1.0, -1e-9)

    def test_unreachable_tolerance_is_flagged(self):
        # a kink plus an absurd tolerance exhausts the panel budget;
        # the result is flagged but still carries a usable value
        r = integrate_smooth(lambda x: abs(x - 1.0 / 3.0) ** 0.3,
                             0.0, 1.0, 1e-30)
        assert not r.tolerance_met
        assert r.evaluations <= 15 * (2 * MAX_PANELS + 1)
        assert r.value == pytest.approx(0.63850207177, abs=1e-8)

    # the two half-interval moments of (1-t)^(1/2) - t^(1/2) on [0, 1/2],
    # whose derivative is singular at 0: times 1 - t and t they are
    # aux-integrals' e and f at order 1/2 on [0, 1], with their closed forms
    ROOT_MOMENTS = [
        pytest.param(lambda t: 1.0 - t, 0.16429773960448413, 1_965,
                     id="e-part"),
        pytest.param(lambda t: t, 0.030964406271150824, 1_035, id="f-part"),
    ]

    @staticmethod
    def _root_moment(moment, tol):
        return integrate_smooth(
            lambda t: ((1.0 - t) ** 0.5 - t ** 0.5) * moment(t), 0.0, 0.5, tol)

    @pytest.mark.parametrize("moment, exact, evaluations", ROOT_MOMENTS)
    def test_tolerance_below_rounding_is_met_at_the_floor(self, moment, exact,
                                                          evaluations):
        # a G7/K15 panel whose error is within its rounding floor, 50 eps
        # times K15 of |h| (QUADPACK's dqk15), is final, so tol 1e-30 is
        # met once every open panel is: on 131 and 69 of the 2^16 panels
        # allowed, within the estimate of the closed form
        r = self._root_moment(moment, 1e-30)
        assert r.tolerance_met and r.evaluations == evaluations
        assert abs(r.value - exact) <= r.abs_error_estimate

    @pytest.mark.parametrize("moment, exact, evaluations", ROOT_MOMENTS)
    def test_panel_cap_leaves_the_tolerance_unmet(self, monkeypatch, moment,
                                                  exact, evaluations):
        # a panel budget that runs out before the panels next to 0's square
        # root reach their rounding floor leaves the tolerance unmet: 2^5
        # panels, where the moments need 131 and 69 (above)
        monkeypatch.setattr(frachh.numerics, "MAX_PANELS", 2 ** 5)
        r = self._root_moment(moment, 1e-30)
        assert not r.tolerance_met and r.evaluations < evaluations
        assert r.value == pytest.approx(exact, rel=1e-14)

    def test_monotone_cost_in_tolerance(self):
        h = lambda x: math.exp(-3.0 * x) * math.sin(5.0 * x)
        evals = [integrate_smooth(h, 0.0, 2.0, tol).evaluations
                 for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
        assert evals == sorted(evals)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-3.0, 3.0), d=st.floats(-2.0, 2.0),
       tol=st.sampled_from([1e-5, 1e-7, 1e-9]))
def test_halving_tol_never_reduces_evaluations(c, d, tol):
    h = lambda x: math.exp(c * x) + d * math.sin(4.0 * x)
    coarse = integrate_smooth(h, 0.0, 1.5, tol)
    fine = integrate_smooth(h, 0.0, 1.5, tol / 2.0)
    assert fine.evaluations >= coarse.evaluations


@settings(max_examples=40, deadline=None)
@given(c2=st.floats(-2.0, 2.0), c1=st.floats(-2.0, 2.0),
       c0=st.floats(-2.0, 2.0))
def test_smooth_value_matches_polynomial_antiderivative(c2, c1, c0):
    h = lambda x: c2 * x * x + c1 * x + c0
    exact = c2 / 3.0 + c1 / 2.0 + c0
    r = integrate_smooth(h, 0.0, 1.0, 1e-11)
    assert r.value == pytest.approx(exact, abs=1e-10)
    assert r.abs_error_estimate >= 0.0
    assert r.evaluations >= 1


@settings(max_examples=200, deadline=None)
@given(lo=st.sampled_from([1.0, 1000.0, -3.0, 1e-300]),
       ulps=st.integers(1, 256))
def test_nodes_stay_inside_a_panel_a_few_ulps_wide(lo, ulps):
    # the centre of such a panel rounds by up to half an ulp, which can
    # take c -+ r x past an end; (t - a)^(alpha - 1) is complex there
    hi = lo
    for _ in range(ulps):
        hi = math.nextafter(hi, math.inf)
    assert all(lo <= x <= hi for x in _gk15_nodes(lo, hi))


def test_adaptive_adds_the_floors_outside_its_stopping_test():
    # a panel rule whose error meets tol on the mesh panel and whose
    # rounding floor is 1000 times tol: the loop stops on the error alone,
    # after one panel, and the estimate is the error plus the floor
    tol, read = 1e-9, []

    def panel(lo, hi):
        read.append((lo, hi))
        return 1.0, 0.5 * tol, 1000.0 * tol, 15

    r, _ = frachh.numerics._adaptive(panel, (0.0, 1.0), tol)
    assert read == [(0.0, 1.0)] and r.evaluations == 15
    assert r.tolerance_met
    assert r.abs_error_estimate == 0.5 * tol + 1000.0 * tol


def test_adaptive_sets_a_panel_at_its_floor_aside():
    # a panel rule whose error, 1000 times tol, equals its rounding floor
    # on every panel: bisecting would only chase rounding, so the loop
    # stops after the mesh panel with the tolerance met (without the rule
    # it ran to MAX_PANELS), and the estimate is the error plus the floor
    tol, read = 1e-9, []

    def panel(lo, hi):
        read.append((lo, hi))
        return 1.0, 1000.0 * tol, 1000.0 * tol, 15

    r, panels = frachh.numerics._adaptive(panel, (0.0, 1.0), tol)
    assert read == [(0.0, 1.0)] and len(panels) == 1
    assert r.tolerance_met and r.evaluations == 15
    assert r.abs_error_estimate == 2000.0 * tol


class TestIntegrateOdd:
    """integrate_odd integrates (x^alpha S + R) h over the offsets [0, X];
    identity 1.4 passes the fold h = f'(a+x) - f'(b-x) of int_a^b k f' for
    its k odd about m, k(a+x) = x^alpha - (w-x)^alpha, so S = 1 and R =
    -(w-x)^alpha."""

    @staticmethod
    def _fold(d, a, b):
        return lambda x: d(a + x) - d(b - x)

    @classmethod
    def _end_difference(cls, d, a, b, alpha):
        w = b - a
        return integrate_odd(cls._fold(d, a, b), alpha,
                             lambda x: (1.0, -(w - x) ** alpha),
                             (0.0, 0.5 * w))

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0),
                                          (0.0, 1e-6)])
    @pytest.mark.parametrize("alpha", [1e-4, 0.1, 0.25, 0.5, 0.75, 1.5])
    def test_linear_derivative_on_a_mesh(self, alpha, interval):
        # f' = t - a: E = w^(alpha+2) alpha / ((alpha+1) (alpha+2)), on the
        # one panel [0, w/2] and on a mesh of four, whose inner panels take
        # k = x^alpha S + R by the order-1 rule
        a, b = interval
        w = b - a
        exact = w ** (alpha + 2.0) * alpha / ((alpha + 1.0) * (alpha + 2.0))
        for mesh in ((0.0, 0.5 * w), (0.0, w / 16, w / 8, w / 4, 0.5 * w)):
            for tol in (DEFAULT_TOL, 1e-12 * exact):
                r = integrate_odd(self._fold(lambda t: t - a, a, b), alpha,
                                  lambda x: (1.0, -(w - x) ** alpha), mesh,
                                  tol)
                assert r.tolerance_met
                assert (abs(r.value - exact)
                        <= r.abs_error_estimate + 4 * math.ulp(exact))

    @pytest.mark.parametrize("interval", END_RULE_INTERVALS,
                             ids=lambda i: f"[{i[0]:g},{i[1]:g}]")
    @pytest.mark.parametrize("alpha", [0.25, 1.5, 4.5])
    def test_end_difference_of_exp(self, alpha, interval):
        # E = int (t-a)^alpha e^t - int (b-t)^alpha e^t: the "exp" entries
        # of exact.json at order alpha + 1, lower minus upper.  Each entry
        # is rounded, so their difference is exact to the ulps of the
        # entries: on [0, 1e-6] at alpha 4.5 it cancels 6 digits, and is
        # 1.2e-50 off mpmath's E, where the value is 4.4e-52 off
        a, b = interval
        key, order = f"{a!r},{b!r}", repr(alpha + 1.0)
        lower, upper = (EXACT_EXP[side][key][order]
                        for side in ("lower", "upper"))
        r = self._end_difference(math.exp, a, b, alpha)
        assert r.tolerance_met
        assert (abs(r.value - (lower - upper))
                <= r.abs_error_estimate + 4 * math.ulp(max(lower, upper)))

    @pytest.mark.parametrize("bad, within", [
        (lambda t: math.inf if t < 1.5 else t, (0.0, 0.5)),
        (lambda t: math.nan if t > 2.5 else t, (0.0, 0.5)),
        (lambda t: math.inf if t == 3.0 else t, (0.0, 0.0)),
    ], ids=["below-m", "above-m", "at-b"])
    def test_nonfinite_derivative_reported_with_abscissa(self, bad, within):
        # the fold reads f' at a + x and at b - x on [1, 3], and the error
        # names the first offset x of the panel's nodes where it is not
        # finite
        with pytest.raises(EvaluationError) as info:
            self._end_difference(bad, 1.0, 3.0, 0.5)
        h = self._fold(bad, 1.0, 3.0)
        lo, hi = within
        assert lo <= info.value.abscissa <= hi
        assert info.value.abscissa == next(
            x for x in frachh.numerics._end_nodes(0.0, 1.0, False)
            if not math.isfinite(h(x)))


class TestIntegrateSingular:
    def test_constant_upper_half_order(self):
        # int_0^1 (1-t)^(-1/2) dt = 2
        r = integrate_singular(lambda t: 1.0, 0.0, 1.0, 0.5,
                               KernelSide.UPPER_SINGULAR, 1e-10)
        assert r.value == pytest.approx(2.0, abs=1e-10)

    def test_monomial_lower_half_order(self):
        # int_0^1 t^(-1/2) t^2 dt = 2/5
        r = integrate_singular(lambda t: t * t, 0.0, 1.0, 0.5,
                               KernelSide.LOWER_SINGULAR, 1e-10)
        assert r.value == pytest.approx(0.4, abs=1e-10)

    def test_monomial_upper_half_order(self):
        # int_0^1 (1-t)^(-1/2) t^2 dt = B(1/2, 3) = 16/15
        r = integrate_singular(lambda t: t * t, 0.0, 1.0, 0.5,
                               KernelSide.UPPER_SINGULAR, 1e-10)
        assert r.value == pytest.approx(16.0 / 15.0, abs=1e-10)

    def test_summed_estimate_is_resummed_exactly(self):
        # (t-a)^100 e^t on [0, 100], ~1e243, to tol 1e191: when the largest
        # estimates leave the heap, the running sum of the open panels'
        # estimates rounds low and read tol met after 1,275 nodes, while
        # the open estimates summed exactly to more, so the loop stopped
        # with tolerance_met False; re-summed exactly before it stops, it
        # bisects on to 1,475 nodes and meets tol.  The estimate still
        # carries the final panels' floors, 1.9e229
        r = integrate_singular(math.exp, 0.0, 100.0, 101.0,
                               KernelSide.LOWER_SINGULAR, 1e191)
        assert r.tolerance_met
        assert r.evaluations == 1_475
        assert r.abs_error_estimate > 1e229

    def test_alpha_one_matches_plain_quadrature(self):
        h = lambda t: math.exp(-t) * (1.0 + t)
        r1 = integrate_singular(h, 0.0, 2.0, 1.0,
                                KernelSide.UPPER_SINGULAR, 1e-10)
        r2 = integrate_smooth(h, 0.0, 2.0, 1e-10)
        assert r1.value == pytest.approx(r2.value, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    @pytest.mark.parametrize("side", list(KernelSide))
    def test_supersingular_consistent_with_folded_kernel(self, alpha, side):
        # for alpha >= 1 the kernel is continuous, so direct integration
        # of kernel*h must agree within the combined estimates
        a, b = 1.0, 3.0
        h = lambda t: math.cos(t) + 2.0
        if side is KernelSide.UPPER_SINGULAR:
            folded = lambda t: (b - t) ** (alpha - 1.0) * h(t)
        else:
            folded = lambda t: (t - a) ** (alpha - 1.0) * h(t)
        r1 = integrate_singular(h, a, b, alpha, side, 1e-10)
        r2 = integrate_smooth(folded, a, b, 1e-10)
        budget = r1.abs_error_estimate + r2.abs_error_estimate + 1e-12
        assert abs(r1.value - r2.value) <= budget

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_beta_oracle_equivalence(self, alpha, n):
        a, b = 1.0, 3.0
        exact = beta_reference(alpha, n, a, b)
        r = integrate_singular(lambda t: (t - a) ** n, a, b, alpha,
                               KernelSide.UPPER_SINGULAR,
                               1e-9).scaled(1.0 / gamma(alpha))
        assert r.value == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("n", range(7))
    def test_error_estimate_brackets_true_error(self, alpha, n):
        # |value - exact| <= 10*estimate, plus a roundoff floor for the
        # machine-exact cases where the estimate itself rounds to zero
        exact = beta_reference(alpha, n)
        r = integrate_singular(lambda t: t ** n, 0.0, 1.0, alpha,
                               KernelSide.UPPER_SINGULAR,
                               1e-9).scaled(1.0 / gamma(alpha))
        floor = 4e-15 * max(1.0, abs(exact))
        assert abs(r.value - exact) <= 10.0 * r.abs_error_estimate + floor

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(alpha=NON_INTEGER_ORDERS, n=st.integers(0, 12),
           interval=st.sampled_from(END_RULE_INTERVALS),
           side=st.sampled_from(list(KernelSide)))
    @example(alpha=1e-8, n=12, interval=(0.0, 1e-6),
             side=KernelSide.UPPER_SINGULAR)
    @example(alpha=1.0, n=12, interval=(1.0, 3.0),
             side=KernelSide.UPPER_SINGULAR)
    @example(alpha=3.0, n=12, interval=(10.0, 10.5),
             side=KernelSide.LOWER_SINGULAR)
    def test_end_rule_estimate_covers_the_beta_integral(self, alpha, n,
                                                       interval, side):
        # a polynomial of degree <= 12 is integrated exactly by the end rule
        # and by its nested 13-point rule, so the estimate is their rounding
        # floor; without it the estimate missed by 2e-10 relative at alpha
        # ~12, n = 12.  [1000, 1001] is left out: h is read there at
        # rounded abscissae, and the error reaches 1.4e-13 relative
        # (ROADMAP item 12).  The exact value is w^n w^alpha n! /
        # prod_k (alpha + k), k = 0..n: Gamma(alpha) beta_reference and
        # w^(n + alpha) are 1.3e-14 relative off at alpha ~ 1e-8
        a, b = interval
        h = ((lambda t: (t - a) ** n) if side is KernelSide.UPPER_SINGULAR
             else (lambda t: (b - t) ** n))
        r = integrate_singular(h, a, b, alpha, side)
        w = b - a
        exact = (w ** n * w ** alpha * math.factorial(n)
                 / math.prod(alpha + k for k in range(n + 1)))
        assert abs(r.value - exact) <= r.abs_error_estimate + 4 * math.ulp(exact)
        assert r.evaluations <= 95

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=NON_INTEGER_ORDERS,
           interval=st.sampled_from(END_RULE_INTERVALS),
           side=st.sampled_from(list(KernelSide)))
    @example(alpha=11.09, interval=(10.0, 10.5), side=KernelSide.UPPER_SINGULAR)
    def test_end_rule_estimate_covers_a_kink_at_the_midpoint(self, alpha,
                                                            interval, side):
        # one bisection, three 25-point panels: the end rule on [a, b] and
        # on the half at the singular end, and the order-1 rule on the
        # product on the other half.  On [10, 10.5] that half reads |t - m|
        # at abscissae rounded by 1.8e-15, 1e-14 of the value, which its
        # rounding floor covers: at alpha 11.09 the error is 1.7e-21
        # against an estimate of 9.9e-20
        a, b = interval
        m, w = 0.5 * (a + b), b - a
        r = integrate_singular(lambda t: abs(t - m), a, b, alpha, side)
        exact = (w ** (alpha + 1.0) / (alpha * (alpha + 1.0))
                 * (0.5 * (alpha - 1.0) + 2.0 ** -alpha))
        assert abs(r.value - exact) <= r.abs_error_estimate + 4 * math.ulp(exact)
        assert r.evaluations <= 75

    @pytest.mark.parametrize("side", list(KernelSide))
    @pytest.mark.parametrize("interval", EXP_INTERVALS,
                             ids=lambda i: f"[{i[0]:g},{i[1]:g}]")
    @pytest.mark.parametrize("alpha", EXP_ORDERS)
    def test_end_rule_estimate_covers_the_exp_integral(self, alpha, interval,
                                                      side):
        # e^b gamma(alpha, w) (upper) and e^a w^alpha 1F1(alpha; alpha+1;
        # w)/alpha (lower), w = b - a; on [0, 10] the absolute tolerance
        # 1e-9 meets values up to 2e14 (alpha 11.3), and the loop bisects
        # to ~1,200 evaluations
        a, b = interval
        exact = EXACT_EXP[side.value][f"{a!r},{b!r}"][repr(alpha)]
        r = integrate_singular(math.exp, a, b, alpha, side)
        assert abs(r.value - exact) <= r.abs_error_estimate + 4 * math.ulp(exact)
        assert r.evaluations <= 1_300

    @pytest.mark.parametrize("side", list(KernelSide))
    def test_end_rule_estimate_covers_the_neg_log_integral(self, side):
        # -log on [1, 3] at order 0.1 (exact.json, mpmath in u = (b-t)^alpha
        # or (t-a)^alpha): the end rule reads the value to an ulp or two,
        # where the nested rule's difference estimated 6.1e-10 (upper) and
        # 1.7e-9 (lower), and the coefficients' tail 4.2e-12 and 4.0e-12
        exact = NEG_LOG["1.0,3.0"]["0.1"][side.value]
        r = integrate_singular(lambda t: -math.log(t), 1.0, 3.0, 0.1, side)
        assert abs(r.value - exact) <= r.abs_error_estimate + 4 * math.ulp(exact)
        assert r.abs_error_estimate <= 1e-11
        assert r.evaluations <= 75

    @pytest.mark.parametrize("alpha", [0.1, 0.75, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("side", list(KernelSide))
    def test_a_series_at_its_rounding_plateau_stops(self, alpha, side):
        # t^2 cos(pi (t - m)) on [1000, 1001], ~1e6, read at abscissae
        # rounded to ulp(1000): its Chebyshev coefficients level off at
        # ~3e-14 of the largest, ~1e-8, which bisecting does not lower and
        # the panel's floor does not cover.  At the plateau the panel is
        # final; without the rule the loop ran 3,276,775 evaluations at
        # alpha 0.75 and 2, either side, without meeting tol
        m = 1000.5
        r = integrate_singular(lambda t: t * t * math.cos(math.pi * (t - m)),
                               1000.0, 1001.0, alpha, side)
        assert r.tolerance_met
        assert r.evaluations <= 200

    @pytest.mark.parametrize("side", list(KernelSide))
    def test_end_rule_reads_the_singular_end(self, side):
        # the kernel is 0 there for alpha > 1, but h is still read
        a, b = 1.0, 3.0
        end = b if side is KernelSide.UPPER_SINGULAR else a
        with pytest.raises(EvaluationError) as info:
            integrate_singular(lambda t: math.inf if t == end else t, a, b,
                               1.5, side)
        assert info.value.abscissa == end

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("side", list(KernelSide))
    def test_integer_order_runs_the_end_rule_loop(self, alpha, side):
        # an integer order has no branch of its own: exp against the
        # polynomial kernel on [1, 3] meets its closed form, e^3 gamma(n, 2)
        # (upper) and e int_0^2 x^(n-1) e^x dx (lower), within its estimate,
        # on end-rule panels
        e, e3 = math.e, math.exp(3.0)
        exact = {(1.0, "upper"): e3 - e, (2.0, "upper"): e3 - 3.0 * e,
                 (3.0, "upper"): 2.0 * e3 - 10.0 * e,
                 (1.0, "lower"): e3 - e, (2.0, "lower"): e3 + e,
                 (3.0, "lower"): 2.0 * e3 - 2.0 * e}[alpha, side.value]
        r = integrate_singular(math.exp, 1.0, 3.0, alpha, side)
        assert abs(r.value - exact) <= r.abs_error_estimate + 4 * math.ulp(exact)

    @pytest.mark.parametrize("alpha,a,b,kinked,each,left_calls,calls",
                             [(1.5, 0.0, 1e-6, False, 13, 13, 13)]
                             + [(alpha, 1.0, 3.0, True, 63, 57, 69)
                                for alpha in (0.1, 0.75, 1.5, 2.5)]
                             + [(alpha, 1.0, 3.0, True, 51, 45, 45)
                                for alpha in (1.0, 2.0)])
    def test_end_rule_nodes_are_odd_so_both_sides_share_their_reads(
            self, alpha, a, b, kinked, each, left_calls, calls):
        # s_j = -s_(24-j) bit for bit, so the panels of the two sides on
        # one mesh read the same abscissae, and a panel's 13 even nodes are
        # the mirrored panel's 13 even nodes.  exp on [0, 1e-6] takes one
        # panel a side at its 13 nodes, whose degree-12 series is at its
        # plateau.  |t - m| bisects once at its kink: [a, b] at 25 nodes,
        # the half at the singular end, linear there, at 13 and the other
        # half at 25, 57 distinct abscissae (a, m and b close two panels
        # each, and the halves' midpoints are nodes of [a, b] too); J_right
        # then reads only the 12 odd nodes of the half J_left closed at 13.
        # At an integer order both halves are polynomials, 13 nodes each,
        # and J_right reads only what J_left did.  integrate_odd and the
        # kernel build read through the same panels, and there the fold of
        # f' = t and K of |t - m|, polynomials times the kernel on [a, m],
        # take one panel at 0 at its 13 nodes
        nodes = frachh.numerics._END_NODES
        assert len(nodes) == 25 and nodes[12] == 0.0
        assert all(nodes[j].hex() == (-nodes[24 - j]).hex()
                   for j in range(25) if j != 12)
        m = 0.5 * (a + b)
        read = Integrand((lambda t: abs(t - m)) if kinked else math.exp)
        s = FracSetting(a, b, alpha)
        left = j_left(read.__call__, s)
        assert read.calls == left_calls
        right = j_right(read.__call__, s)
        assert left.evaluations == right.evaluations == each
        assert read.calls == len(read.table) == calls
        if kinked and alpha.is_integer():
            w = b - a
            odd = integrate_odd(lambda x: (a + x) - (b - x), alpha,
                                lambda x: (1.0, -(w - x) ** alpha),
                                (0.0, 0.5 * w))
            kernel = CumulativeKernel(lambda t: abs(t - m), a, b, alpha)
            assert odd.evaluations == kernel.evaluations == 13
            assert list(kernel.ends) == [0.0, 0.5 * w]

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: a panel "
                       "accepted at its 13 even nodes, where T_12(t)^2 - 1 "
                       "is 0, reads the integral as 0 with an estimate of 0")
    @pytest.mark.parametrize("quad", ["singular", "odd"])
    def test_a_series_zero_at_the_even_nodes_is_not_read_as_zero(self, quad):
        # int_-1^1 T_12(t)^2 - 1 dt = -1 - 1/575, at alpha 1 by
        # integrate_singular and, as int_0^2 x (T_12(x-1)^2 - 1) dx, whose
        # part x (odd in x - 1) adds 0, by integrate_odd at order 2
        t12 = lambda t: math.cos(12.0 * math.acos(max(-1.0, min(1.0, t))))
        if quad == "singular":
            r = integrate_singular(lambda t: t12(t) ** 2 - 1.0, -1.0, 1.0,
                                   1.0, KernelSide.LOWER_SINGULAR)
        else:
            r = integrate_odd(lambda x: t12(x - 1.0) ** 2 - 1.0, 1.0,
                              lambda x: (1.0, 0.0), (0.0, 2.0))
        exact = -1.0 - 1.0 / 575.0
        assert abs(r.value - exact) <= r.abs_error_estimate + 1e-12

    def test_a_zero_value_against_an_overflowing_kernel_adds_zero(self):
        # on [0, 1e-309] at alpha 1e-8, t^(alpha-1) overflows on the panel
        # [w/2, w], where h is 0: its terms are 0.0, and no OverflowError
        w, alpha = 1e-309, 1e-8
        r = integrate_singular(lambda t: max(0.0, w / 4 - t), 0.0, w, alpha,
                               KernelSide.LOWER_SINGULAR, 1e-318)
        exact = (w / 4) ** (alpha + 1) / (alpha * (alpha + 1))
        assert r.tolerance_met and r.value == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.75, 2.5])
    @pytest.mark.parametrize("side", list(KernelSide))
    def test_non_finite_value_on_an_interior_panel_names_its_abscissa(
            self, side, alpha):
        # |t - m| bisects once; the bad node lies on the half away from the
        # singular end, read by no other panel
        a, b, m = 1.0, 3.0, 2.0
        upper = side is KernelSide.UPPER_SINGULAR
        bad = (_end_nodes(a, m, True) if upper
               else _end_nodes(m, b, False))[3]
        assert bad not in _end_nodes(a, b, upper)
        with pytest.raises(EvaluationError) as info:
            integrate_singular(lambda t: math.nan if t == bad else abs(t - m),
                               a, b, alpha, side)
        assert info.value.abscissa == bad

    def test_end_rule_moments_match_exact_rationals(self):
        # the subtracted rule read at T_k(s) is its moment N_k = int_0^1
        # u^(alpha-1) (T_k(2u - 1) - T_k(-1)) du, against the sums of
        # int_0^1 u^(alpha-1+j) du = 1/(alpha+j) over the monomials j >= 1 of
        # T_k(2u - 1), in exact rationals at the float alpha; then both
        # rules integrate u^(alpha-1) u^n exactly, the full one for n <= 24
        # and the nested one for n <= 12, at u = (1+s)/2, u^n at u = 0
        # giving p(0)/alpha
        polys = [[Fraction(1)], [Fraction(-1), Fraction(2)]]
        while len(polys) < 25:  # T_(k+1) = 2 (2u - 1) T_k - T_(k-1)
            p, q = polys[-1], polys[-2]
            nxt = [-2 * c - d for c, d in zip(p + [0], q + [0, 0])]
            polys.append([c + 4 * d for c, d in zip(nxt, [0] + p)])
        us = [(1.0 + s) / 2.0 for s in frachh.numerics._END_NODES]
        for alpha in (1e-8, 1e-4, 0.25, 0.5, 0.75, 2.5, 12.3):
            full, nested = frachh.numerics._end_rule(alpha)
            for k, poly in enumerate(polys):
                exact = float(sum(c / (Fraction(alpha) + j)
                                  for j, c in enumerate(poly) if j))
                ts = [math.cos(math.pi * (j * k % 48) / 24) for j in range(25)]
                assert math.fsum(map(float.__mul__, full, ts)) == (
                    pytest.approx(exact, rel=4e-15, abs=4e-15)), (alpha, k)
            for n in range(25):
                ys = [u ** n for u in us]
                exact = float(1 / (Fraction(alpha) + n))
                head = ys[-1] / alpha
                assert head + math.fsum(map(float.__mul__, full, ys)) == (
                    pytest.approx(exact, rel=4e-15)), (alpha, n)
                if n <= 12:
                    assert head + sum(map(float.__mul__, nested, ys[::2])) == (
                        pytest.approx(exact, rel=4e-15)), (alpha, n)

    def test_importing_the_cli_builds_no_end_rule(self):
        # the weights are built on first use, not at import (bench setup_s)
        code = ("import frachh.cli, frachh.numerics as n; "
                "print(n._end_rule.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(frachh.numerics.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "0"

    def test_alpha_domain(self):
        for bad in (0.0, -0.5, math.nan):
            with pytest.raises(DomainError):
                integrate_singular(lambda t: 1.0, 0.0, 1.0, bad,
                                   KernelSide.UPPER_SINGULAR, 1e-9)

    def test_side_type_checked(self):
        with pytest.raises(DomainError):
            integrate_singular(lambda t: 1.0, 0.0, 1.0, 0.5, "upper", 1e-9)


class TestIntegrateSymmetric:
    # the bump weight on [1, 3], symmetric about 2
    @staticmethod
    def bump(t):
        return math.exp(-2.0 * (t - 2.0) ** 2)

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5])
    @pytest.mark.parametrize("f", [None, math.exp])
    def test_in_the_band_it_is_one_integral(self, alpha, f):
        # its definition: one G7/K15 integral in u of f(b-d) g(b-d)/2 +
        # f(a+d) g(b-d)/2, d = u^(1/alpha), to tol and unscaled, g read at
        # b - d only, each time f is read there
        reads = {"f": [], "g": []}

        def recorded(fn, key):
            def wrapper(x):
                reads[key].append(x)
                return fn(x)
            return wrapper

        def phi(u):
            d = u ** (1.0 / alpha)
            x = min(max(3.0 - d, 1.0), 3.0)
            y = self.bump(x)
            if f is None:
                return y
            return 0.5 * f(x) * y + 0.5 * f(min(max(1.0 + d, 1.0), 3.0)) * y

        half = integrate_symmetric(None if f is None else recorded(f, "f"),
                                   recorded(self.bump, "g"), 1.0, 3.0, alpha)
        assert half == integrate_smooth(phi, 0.0, 2.0 ** alpha, DEFAULT_TOL)
        assert len(reads["g"]) == half.evaluations
        if f is not None:
            assert reads["g"] == reads["f"][::2]
        # 2/alpha times it is both sides, each on the end rule, whose
        # estimates are the budget: at tol 1e-12 the band is within 3e-15
        # of the exact value (mpmath, in u), where at DEFAULT_TOL it can be
        # 1.7e-12 off (exp, alpha 0.3), past the end rule's 8.4e-13
        h = self.bump if f is None else lambda t: f(t) * self.bump(t)
        upper, lower = (integrate_singular(h, 1.0, 3.0, alpha, side)
                        for side in KernelSide)
        fine = integrate_symmetric(f, self.bump, 1.0, 3.0, alpha, 1e-12)
        assert abs(fine.scaled(2.0 / alpha).value - (upper + lower).value) <= (
            upper.abs_error_estimate + lower.abs_error_estimate)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.3, 0.5, 0.75, 2.0])
    def test_no_weight_reads_one(self, alpha):
        # g = None, the unit weight, is g = 1 bit for bit, in the band too
        assert integrate_symmetric(math.exp, None, 1.0, 3.0, alpha) == (
            integrate_symmetric(math.exp, lambda t: 1.0, 1.0, 3.0, alpha))

    def test_products_near_the_float_max_are_halved_first(self):
        # f g is 1e308 on both sides, so their plain sum is inf and would
        # raise EvaluationError; halved first, every value read is finite
        # and only the integral overflows, which callers report as such
        both = integrate_symmetric(lambda t: 1e308, lambda t: 1.0, 0.0, 1.0,
                                   0.5)
        assert both.value == math.inf


class TestIntegrand:
    """An Integrand calls, checks, counts and keeps every read of fn."""

    @staticmethod
    def counted(fn=math.exp):
        calls = []

        def h(x):
            calls.append(x)
            return fn(x)

        return h, calls

    def test_each_abscissa_is_called_once(self):
        h, calls = self.counted()
        read = Integrand(h)
        xs = [0.1, 0.2, 0.1, 0.3, 0.2]  # repeats inside one pass
        assert [read(x) for x in xs] == [math.exp(x) for x in xs]
        assert read(0.3) == math.exp(0.3)
        assert [read(x) for x in xs[::-1]] == [math.exp(x) for x in xs[::-1]]
        assert calls == [0.1, 0.2, 0.3] and read.calls == 3
        assert read.table == {x: math.exp(x) for x in calls}

    def test_past_the_cap_a_read_calls_and_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 2)
        h, calls = self.counted()
        read = Integrand(h)
        xs = [0.1, 0.2, 0.3, 0.3]
        assert [read(x) for x in xs] == [math.exp(x) for x in xs]
        assert read(0.1) == math.exp(0.1) and read(0.3) == math.exp(0.3)
        assert calls == [0.1, 0.2, 0.3, 0.3, 0.3] and read.calls == 5
        assert list(read.table) == [0.1, 0.2]

    def test_a_nan_raises_at_its_abscissa_before_it_is_kept(self):
        h, calls = self.counted(lambda x: math.nan if x == 0.2 else x)
        read = Integrand(h)
        with pytest.raises(EvaluationError) as info:
            read(0.2)
        with pytest.raises(EvaluationError) as in_a_pass:
            [read(x) for x in (0.1, 0.2, 0.3)]
        for error in (info.value, in_a_pass.value):
            assert error.abscissa == 0.2 and math.isnan(error.value)
        assert read.calls == len(calls)
        assert read.table == {0.1: 0.1}

    def test_a_substituted_integral_names_the_abscissa_of_fn(self):
        # the quadrature runs in u = (b-t)^alpha, the error names t
        read = Integrand(lambda x: math.inf if x > 0.7 else 1.0)
        with pytest.raises(EvaluationError) as info:
            integrate_singular(read, 0.0, 1.0, 0.5, KernelSide.UPPER_SINGULAR)
        assert info.value.abscissa > 0.7

    def test_calls_are_the_calls_of_fn(self):
        h, calls = self.counted(lambda x: 1.0 + (x - 0.5) ** 2)
        read = Integrand(h)
        integrate_smooth(read, 0.0, 1.0)
        integrate_singular(read, 0.0, 1.0, 0.75, KernelSide.LOWER_SINGULAR)
        k = CumulativeKernel(read, 0.0, 1.0, 1.25)
        for t in _gk15_nodes(0.2, 0.6):
            k(t)
        assert read.calls == len(calls) > 0


class TestCumulativeKernel:
    def test_alpha_one_closed_form(self):
        # g = 1, alpha = 1: K(t) = (t - a) - (b - t)
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 1.0)
        for t in (0.0, 0.125, 0.3, 0.5, 0.77, 1.0):
            assert k(t) == pytest.approx(2.0 * t - 1.0, abs=1e-9)

    def test_half_order_closed_form(self):
        # g = 1, alpha = 1/2: K(t) = 2 sqrt(t) - 2 sqrt(1-t)
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 0.5)
        # t = 1e-12 lies inside the leaf at a, next to its singular end,
        # and 1 - 1e-12 reads it at the offset b - t
        for t in (0.0, 1e-12, 0.2, 0.25, 0.5, 0.6, 0.9, 1.0 - 1e-12, 1.0):
            exact = 2.0 * math.sqrt(t) - 2.0 * math.sqrt(1.0 - t)
            assert k(t) == pytest.approx(exact, abs=1e-9)

    def test_endpoint_values_match_raw_kernel_integrals(self):
        a, b, alpha = 1.0, 3.0, 0.75
        g = lambda s: math.exp(-((s - 2.0) ** 2))
        k = CumulativeKernel(g, a, b, alpha)
        upper = integrate_singular(g, a, b, alpha,
                                   KernelSide.UPPER_SINGULAR, 1e-11)
        lower = integrate_singular(g, a, b, alpha,
                                   KernelSide.LOWER_SINGULAR, 1e-11)
        budget = k.abs_error_estimate + 1e-10
        assert abs(k(b) - upper.value) <= budget
        assert abs(k(a) + lower.value) <= budget

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.75])
    def test_antisymmetry_for_symmetric_weight(self, alpha):
        a, b = 1.0, 3.0
        g = lambda s: 1.0 + math.cos(math.pi * (s - 2.0))
        k = CumulativeKernel(g, a, b, alpha)
        assert abs(k(2.0)) <= k.abs_error_estimate + 1e-12
        for t in (1.0, 1.2, 1.5, 1.9, 2.4, 2.75, 3.0):
            budget = 2.0 * k.abs_error_estimate + 1e-10
            assert abs(k(t) + k(a + b - t)) <= budget

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.25, 4.0])
    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (0.0, 1e-6)])
    def test_leaves_tile_the_half_width_from_the_mesh(self, a, b, alpha):
        # one adaptive integral over [0, w/2] from the mesh (0, w/2): its
        # leaves tile the half width in order, only the leaf at 0 takes h =
        # g - g(a) by the end rule, its head h(0)/alpha 0.0, the leaves'
        # estimates sum to at most tol/4, and the kernel's estimate is that
        # sum plus the leaves' rounding floors
        m = 0.5 * (a + b)
        k = CumulativeKernel(
            lambda s: 2.0 + math.cos(80.0 * (s - m) / (b - a)), a, b, alpha)
        ends, half = list(k.ends), 0.5 * (b - a)
        assert ends[0] == 0.0 and ends[-1] == half
        assert all(lo < hi for lo, hi in zip(ends, ends[1:]))
        assert len(k._pre) == len(ends) and k._pre[0] == 0.0
        errs, floors = [], []
        for lo, hi in zip(ends, ends[1:]):
            ys, gs, head, _ = k._read(lo, hi)
            assert bool(gs) == (lo == 0.0) and head == 0.0
            _, gap, size = _subtracted(1.0, ys, ys[-1], _tail(ys))
            err, floor = (hi - lo) * gap, (hi - lo) * size
            if gs:
                _, gap, size = _subtracted(alpha, gs, head, _tail(gs))
                scale = hi ** alpha
                err, floor = err + scale * gap, floor + scale * size
            errs.append(err)
            floors.append(50.0 * sys.float_info.epsilon * floor)
        assert k.tolerance_met
        assert math.fsum(errs) <= DEFAULT_TOL / 4
        assert k.abs_error_estimate == math.fsum(errs) + math.fsum(floors)

    @pytest.mark.parametrize("a,b,alphas", [
        (0.0, 1.0, (0.3, 1.0, 2.0)), (0.0, 1e-310, (0.25, 0.75)),
        (0.0, 5e-320, (0.25, 0.75))])
    def test_unit_weight_kernel_vanishes_at_midpoint(self, a, b, alphas):
        # g - g(a) is 0, so one leaf, read at its 13 even nodes, covers the
        # half [a, m] in offsets from a, and K at its end is exactly 0.0:
        # at the odd subnormal width 1e-310, w - w/2 is not w/2, and
        # c (x^alpha - (w-x)^alpha) at x = w/2 gave 2.6e-91 at alpha 0.25
        for alpha in alphas:
            k = CumulativeKernel(lambda s: 1.0, a, b, alpha)
            assert list(k.ends) == [0.0, 0.5 * (b - a)], alpha
            assert k.evaluations == 13, alpha
            assert k(a + 0.5 * (b - a)) == 0.0, alpha

    def test_evaluation_counter_grows(self, monkeypatch):
        # past the cap K(t) reads a leaf's nodes again, and counts them
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 0)
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 0.5)
        before = k.evaluations
        k(0.33)
        assert k.evaluations > before

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_repeated_abscissa_costs_nothing(self, alpha, monkeypatch):
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 0)
        k = CumulativeKernel(lambda s: 1.0 + (s - 0.5) ** 2, 0.0, 1.0, alpha)
        built = k.evaluations
        first = k(0.37)
        cost = k.evaluations - built
        assert cost > 0
        assert k(0.37) == first and k.evaluations == built + cost

    def test_out_of_range_still_raises_after_calls(self):
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 0.5)
        for t in (0.0, 0.4, 1.0):
            k(t)
        for t in (-1e-12, 1.0 + 1e-12, math.nan):
            with pytest.raises(DomainError):
                k(t)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6])
    def test_tiny_order_meets_its_tolerance(self, alpha):
        # g(a) x^(alpha-1), nearly 1/x, is what phi leaves out:
        # the rest is bounded, and the build neither bisects to MAX_PANELS
        # nor misses its tolerance
        bump = {w.label: w for w in builtin_weight_corpus(0.0, 1.0)}["bump"]
        k = CumulativeKernel(bump.fn, 0.0, 1.0, alpha)
        assert k.tolerance_met and k.evaluations <= 1000

    # the orders of the default and the hard grid (bench/workloads.py)
    CORPUS_ORDERS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 5.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 3.0), (0.0, 1e-6)])
    def test_a_builtin_weight_reads_one_leaf(self, a, b):
        # every kernel of the corpus is one leaf, g read at its 13 or 25 nodes
        for seed in (42, 2026):
            for w in builtin_weight_corpus(a, b, seed):
                for alpha in self.CORPUS_ORDERS:
                    k = CumulativeKernel(w.fn, a, b, alpha)
                    assert k.evaluations <= 25, (w.label, alpha, seed)

    def test_a_half_width_that_underflows_is_refused(self):
        # [0, 5e-324] has no offset for m: half its width rounds to 0
        with pytest.raises(DomainError, match="half width"):
            CumulativeKernel(lambda s: 1.0, 0.0, 5e-324, 0.5)

    @pytest.mark.parametrize("alpha,interval",
                             list(_calibration_cases()))
    def test_constant_weight_meets_its_error_estimate(self, alpha, interval):
        # g = 1: K(t) = ((t-a)^alpha - (b-t)^alpha) / alpha, at 1,001 points
        a, b = interval
        k = CumulativeKernel(lambda s: 1.0, a, b, alpha)
        ts = [a + (b - a) * i / 1000 for i in range(1001)]
        exact = [((t - a) ** alpha - (b - t) ** alpha) / alpha for t in ts]
        allowed = k.abs_error_estimate + 8 * math.ulp(max(map(abs, exact)))
        assert max(abs(k(t) - e) for t, e in zip(ts, exact)) <= allowed

    @staticmethod
    @functools.cache
    def _offsets(a, b):
        """[(x, ln x)] in Decimal at 50 digits for x = t - a and b - t at
        the calibration's 1,001 points t (ln x None at x = 0)."""
        with localcontext() as ctx:
            ctx.prec = 50
            ts = [Decimal(a + (b - a) * i / 1000) for i in range(1001)]
            return [[(x, x.ln() if x else None) for x in xs]
                    for xs in ([t - Decimal(a) for t in ts],
                               [Decimal(b) - t for t in ts])]

    @pytest.mark.parametrize("alpha,interval",
                             list(_calibration_cases()))
    def test_square_weight_meets_its_error_estimate(self, alpha, interval):
        # g = (s-m)^2: K(t) = F(t-a) - F(b-t) with F(x) = int_0^x v^(alpha-1)
        # (w/2 - v)^2 dv, at the 1,001 points of the constant weight, in
        # Decimal: a float closed form cancels on [0, 1e-6]
        a, b = interval
        m = 0.5 * (a + b)
        k = CumulativeKernel(lambda s: (s - m) ** 2, a, b, alpha)
        ts = [a + (b - a) * i / 1000 for i in range(1001)]
        with localcontext() as ctx:
            ctx.prec = 50
            al, h = Decimal(alpha), (Decimal(b) - Decimal(a)) / 2
            big_f = [[0 if ln is None else (al * ln).exp() * (
                h * h / al - 2 * h * x / (al + 1) + x * x / (al + 2))
                for x, ln in xs] for xs in self._offsets(a, b)]
            exact = [float(u - v) for u, v in zip(*big_f)]
        allowed = k.abs_error_estimate + 8 * math.ulp(max(map(abs, exact)))
        assert max(abs(k(t) - e) for t, e in zip(ts, exact)) <= allowed

    # (a, b, alpha) where K at or one ulp inside an end can read a kernel
    # factor at 0 (1/0, or an overflow on [1e-300, 1.2e-9]), and a narrow
    # interval far from 0, where b - t and t - a read from rounded
    # abscissae missed K(a) by 67x its estimate
    END_CASES = [(0.5, 1.5, 0.5), (1.0, 3.0, 0.25), (0.0, 1.0, 0.5),
                 (1e-300, 1.198676303231777e-09, 0.018391169842110686),
                 (1000.0, 1000.0060321960971, 0.3891522660358974)]

    @staticmethod
    def _at_the_ends(a, b, alpha):
        k = CumulativeKernel(lambda s: 1.0, a, b, alpha)
        ts = (a, math.nextafter(a, b), math.nextafter(b, a), b)
        return k, [k(t) for t in ts], [
            ((t - a) ** alpha - (b - t) ** alpha) / alpha for t in ts]

    # widths of a few subnormals, where nodes of the panel at a round
    # onto a, and x^(alpha-1) at x = 0 is 1/0
    NARROW_CASES = [(0.0, b, alpha) for b in (1e-318, 1e-320, 2e-323)
                    for alpha in (0.25, 0.5)]

    @pytest.mark.parametrize("a,b,alpha", END_CASES + NARROW_CASES)
    def test_finite_at_and_next_to_the_ends(self, a, b, alpha):
        _, values, _ = self._at_the_ends(a, b, alpha)
        assert all(map(math.isfinite, values))

    @pytest.mark.parametrize("a,b,alpha", END_CASES + NARROW_CASES)
    def test_constant_weight_next_to_the_ends(self, a, b, alpha):
        # g = 1 as in the calibration, at a, b and one ulp inside each; on
        # the narrow cases the rounded offsets of the nodes once missed the
        # estimate (29% off on [0, 2e-323], with an estimate of 0)
        k, values, exact = self._at_the_ends(a, b, alpha)
        allowed = (k.abs_error_estimate
                   + 8 * math.ulp((b - a) ** alpha / alpha))
        assert max(abs(v - e) for v, e in zip(values, exact)) <= allowed

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(-1e6, 1e6),
           log_width=st.floats(math.log(1e-3), math.log(10.0)),
           log_alpha=st.floats(math.log(0.01), math.log(5.0)))
    def test_constant_weight_under_translation(self, c, log_width, log_alpha):
        # g = 1 on [c, c + w]: K depends on t only through the offsets
        # t - a and b - t, wherever the interval sits
        a, alpha = c, math.exp(log_alpha)
        b = a + math.exp(log_width)
        k = CumulativeKernel(lambda s: 1.0, a, b, alpha)
        ts = [a + (b - a) * i / 64 for i in range(65)] + [
            math.nextafter(a, b), math.nextafter(b, a)]
        exact = [((t - a) ** alpha - (b - t) ** alpha) / alpha for t in ts]
        allowed = k.abs_error_estimate + 8 * math.ulp(max(map(abs, exact)))
        assert max(abs(k(t) - e) for t, e in zip(ts, exact)) <= allowed

    # Kernels of one weight on one interval share a store, an Integrand of
    # g.  The 200 points include points within 1e-12 and 3e-10 of both ends,
    # which read the leaf at a
    SHARED_ALPHAS = (0.5, 1.25, 2.5)
    POINTS = ([1.0 + 2.0 * i / 195 for i in range(196)]
              + [1.0 + 1e-12, 1.0 + 3e-10, 3.0 - 3e-10, 3.0 - 1e-12])

    @staticmethod
    def bump():
        return {w.label: w for w in builtin_weight_corpus(1.0, 3.0)}["bump"].fn

    @staticmethod
    def store():
        """An empty store: an Integrand, whose fn shared_run sets."""
        return Integrand(None)

    def shared_run(self, alphas, store, tol=DEFAULT_TOL):
        """(values, calls) of one kernel per alpha on store, where
        calls[i] lists the abscissae kernel i called g at."""
        bump, calls, values = self.bump(), [], []
        read = store

        def g(x):
            calls[-1].append(x)
            return bump(x)

        read.fn = g
        for alpha in alphas:
            calls.append([])
            k = CumulativeKernel(read, 1.0, 3.0, alpha, tol)
            values.append([k(t) for t in self.POINTS])
            assert k.evaluations == len(calls[-1]), alpha
        return values, calls

    def test_shared_store_gives_the_values_of_own_stores(self):
        values, calls = self.shared_run(self.SHARED_ALPHAS, self.store())
        own = [self.shared_run((alpha,), self.store())
               for alpha in self.SHARED_ALPHAS]
        assert values == [run[0][0] for run in own]  # bit for bit
        # no abscissa is called by two kernels, and each later kernel
        # calls g less often than on a store of its own
        called = [set(made) for made in calls]
        assert len(set().union(*called)) == sum(map(len, called))
        assert all(len(made) < len(run[1][0])
                   for made, run in zip(calls[1:], own[1:]))

    def test_retry_kernel_pays_only_its_new_nodes(self):
        store = self.store()
        _, (first,) = self.shared_run((1.25,), store)
        _, (retry,) = self.shared_run((1.25,), store, DEFAULT_TOL / 100)
        _, (alone,) = self.shared_run((1.25,), self.store(), DEFAULT_TOL / 100)
        assert len(set(retry) - set(first)) == len(retry) < len(alone)

    def test_store_is_capped(self, monkeypatch):
        # a leaf whose nodes fell out of the table reads them again, and
        # shared_run checks that every call is counted
        values, calls = self.shared_run(self.SHARED_ALPHAS, self.store())
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 10)
        read = self.store()
        capped, capped_calls = self.shared_run(self.SHARED_ALPHAS, read)
        assert capped == values  # bit for bit
        assert len(read.table) == 10
        assert sum(map(len, capped_calls)) > sum(map(len, calls))

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_end_panels_call_g_once_per_abscissa(self, alpha):
        # near t = 1 + 1e-12 and t = 3, rounding maps a + x for nodes x of
        # the panel at a onto one float: each is called once
        bump, calls = self.bump(), []

        def g(x):
            calls.append(x)
            return bump(x)

        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        for t in self.POINTS:
            before = k.evaluations
            del calls[:]
            k(t)
            assert k.evaluations - before == len(calls) == len(set(calls))

    def test_non_finite_weight_is_caught_before_it_is_stored(self):
        # the build raises at the bad abscissa, which the table never keeps;
        # it reads g on [a, m] only
        bump = self.bump()
        for alpha in (0.5, 1.25):
            read = Integrand(
                lambda x: math.nan if 0.3 < abs(x - 2.0) < 0.4 else bump(x))
            with pytest.raises(EvaluationError) as info:
                CumulativeKernel(read, 1.0, 3.0, alpha)
            assert 1.6 < info.value.abscissa < 1.7, alpha
            assert math.isnan(info.value.value)
            assert read.table and max(read.table) <= 2.0
            assert not any(1.6 < x < 1.7 for x in read.table)


class TestKernelCallsGOncePerNode:
    """g is called once per node: both kernel factors read the same value,
    and K above m reads the nodes of [a, m]."""

    @staticmethod
    def counted(g):
        calls = []

        def h(x):
            calls.append(x)
            return g(x)

        return h, calls

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_evaluations_are_the_calls_made(self, alpha):
        g, calls = self.counted(lambda s: 1.0 + math.cos(3.0 * (s - 0.5)))
        k = CumulativeKernel(g, 0.0, 1.0, alpha)
        assert k.evaluations == len(calls)
        # interior t, and t in both end panels, which read the panel at a
        for t in (0.37, 0.5, 0.81, 1e-12, 1.0 - 1e-12, 0.37):
            k(t)
            assert k.evaluations == len(calls), t

    def test_partial_panel_cost(self):
        # K(t) on [lo, t] re-reads nodes the build kept in the table: no
        # calls at any t, within 1e-12 of either end too
        g, calls = self.counted(lambda s: 1.0 + math.cos(3.0 * (s - 0.5)))
        ts = ([i / 199 for i in range(200)]
              + [1e-12, 3e-10, 1.0 - 3e-10, 1.0 - 1e-12])
        for alpha in (0.25, 0.5, 1.25, 2.5):
            k = CumulativeKernel(g, 0.0, 1.0, alpha)
            del calls[:]
            before = k.evaluations
            list(map(k, ts))
            assert (calls, k.evaluations) == ([], before), alpha

    @staticmethod
    def by_the_panel_rule(k, t):
        """K(t) from the build's leaves: the prefix sum, plus the leaf's
        interpolants at the nodes its build read (13 or 25), in Lagrange's
        form, integrated over [leaf lo, x] by the panel rules on [lo, x],
        exact for their degree 24: for h = g - g(a), of (x^(alpha-1) +
        (w-x)^(alpha-1)) h at order 1, or on the leaf at a, of
        (w-x)^(alpha-1) h at order 1 and of h at order alpha; plus g(a)
        (x^alpha - (w-x)^alpha)/alpha, less the prefix sum at m; above m,
        -K at the offset b - t."""
        ends, pre, sign, x = k.ends, k._pre, 1.0, t - k.a
        if x > ends[-1]:
            sign, x = -1.0, k.b - t
        w, am1, g = k.b - k.a, k.alpha - 1.0, k._g.fn
        ga = g(k.a)
        h = lambda s: g(k.a + s) - ga
        j = min(bisect.bisect_right(ends, x) - 1, len(ends) - 2)
        lo = ends[j]
        xs = _end_nodes(lo, ends[j + 1], False)
        if len(k._read(lo, ends[j + 1])[0]) == 13:
            xs = xs[::2]

        def interpolant(fn):
            ys = [fn(s) for s in xs]
            return lambda v: sum(y * math.prod((v - xm) / (xj - xm)
                                               for xm in xs if xm != xj)
                                 for xj, y in zip(xs, ys))

        def rule(order, p):  # int_lo^x (v - lo)^(order-1) p(v) dv
            ys = [p(v) for v in _end_nodes(lo, x, False)]
            return (x - lo) ** order * (ys[-1] / order + math.fsum(
                map(float.__mul__, _end_rule(order)[0], ys)))

        v = pre[j] + ga * (x ** k.alpha - (w - x) ** k.alpha) / k.alpha
        if x > lo and lo:
            v += rule(1.0, interpolant(
                lambda s: (s ** am1 + (w - s) ** am1) * h(s)))
        elif x > lo:
            v += rule(1.0, interpolant(lambda s: (w - s) ** am1 * h(s)))
            v += rule(k.alpha, interpolant(h))
        return sign * (v - pre[-1])

    def assert_panel_rule_values(self, alpha, ts):
        g = lambda s: math.exp(-((s - 2.0) ** 2))
        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        # both sides sum the terms of degree-24 interpolants (6 ulps seen)
        allowed = 8 * math.ulp(max(abs(k(1.0)), abs(k(3.0))))
        for t in ts:
            assert abs(k(t) - self.by_the_panel_rule(k, t)) <= allowed, t

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.25, 4.0])
    def test_paired_value_is_the_two_rule_value(self, alpha):
        # away from a, phi is both kernel factors times g less g(a)
        # x^(alpha-1), on one interpolant, on either side of m
        self.assert_panel_rule_values(
            alpha, (1.0 + 1e-3, 1.37, 2.0 + 1e-9, 2.5, 2.93))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.25, 4.0])
    def test_end_panel_value_is_the_panel_rule_value(self, alpha):
        # on the panel at a, where g(a) x^(alpha-1) is nearly all of the
        # derivative, in x = t - a below m and x = b - t above it
        self.assert_panel_rule_values(
            alpha, (1.0 + 1e-12, 1.0 + 3e-10, 3.0 - 3e-10, 3.0 - 1e-12))

    def test_end_panel_reads_go_through_the_table(self):
        # a leaf's nodes read again are counted and kept, as builds' are
        g, calls = self.counted(lambda s: math.exp(-((s - 2.0) ** 2)))
        read = Integrand(g)
        k = CumulativeKernel(read, 1.0, 3.0, 0.5)
        read.table.clear()
        del calls[:]
        before = k.evaluations
        for t in (1.0 + 1e-12, 3.0 - 1e-12):
            k(t)
        assert calls and set(calls) <= set(read.table)
        assert k.evaluations - before == len(calls)

    def test_no_abscissa_twice_in_a_partial_panel(self):
        # both kernel factors on [lo, t] read g through one table; each t
        # reads the one leaf of a kernel of its own (0.97 at the offset 0.03)
        g, calls = self.counted(lambda s: 2.0 + (s - 0.5) ** 2)
        read = Integrand(g)
        for t in (0.11, 0.5 + 1e-6, 0.97):
            k = CumulativeKernel(read, 0.0, 1.0, 1.5)
            read.table.clear()
            del calls[:]
            k(t)
            assert 0 < len(calls) == len(set(calls)), t

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.25, 4.0])
    def test_a_whole_leaf_integrates_to_its_panel_value(self, alpha):
        # a leaf's dense value is 0 at its lo and its panel rule's value at
        # its hi, so at every leaf end the dense value from the left leaf is
        # the one from the right leaf: K is continuous where it changes leaf
        k = CumulativeKernel(lambda s: 2.0 + math.cos(80.0 * (s - 2.0)), 1.0,
                             3.0, alpha)
        edges, pre = k.ends, k._pre
        joined = 8 * math.ulp(max(map(abs, pre)))
        for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
            ys, gs, head, _ = k._read(lo, hi)
            value, _, size = _subtracted(1.0, ys, ys[-1], 0.0)
            value, local = (hi - lo) * value, (hi - lo) * size
            d = k._leaf(lo, hi)
            whole = (hi - lo) * _chebyshev(d[0], 1.0)
            none = _chebyshev(d[0], -1.0) - ys[-1]
            if gs:
                full, _, size = _subtracted(alpha, gs, head, 0.0)
                value += hi ** alpha * full
                local += hi ** alpha * size
                whole += hi ** alpha * _chebyshev(d[1], 1.0)
                none = abs(none) + abs(_chebyshev(d[1], -1.0))
            # the rounding of a leaf's sums is that of their terms (2 ulps
            # seen)
            local = 8 * math.ulp(local)
            assert abs(whole - value) <= local, j
            assert abs(pre[j] + whole - pre[j + 1]) <= joined + local, j
            assert abs(none) * (hi - lo) <= local, j
        assert len(edges) - 1 >= 8  # the build bisected to eighths

    def test_build_calls_are_distinct(self):
        g, calls = self.counted(lambda s: 1.0 + (s - 0.5) ** 2)
        CumulativeKernel(g, 0.0, 1.0, 0.75)
        assert len(calls) == len(set(calls))


class TestKernelValues:
    """K(t) at points in every kind of leaf calls g once per distinct
    abscissa it reads again."""

    ALPHAS = (0.25, 0.5, 1.25, 2.5)
    # an outer G7/K15 panel on [1, 3] that mirrors [1.5, 2] (offsets [0.5,
    # 1]) in the leaf at a: its nodes' offsets b - t often round alike
    OUTER = _gk15_nodes(2.0, 2.5)

    @staticmethod
    def counted():
        return TestKernelCallsGOncePerNode.counted(TestCumulativeKernel.bump())

    @classmethod
    def points(cls, k):
        # a and b, next to both, 2^-13 from both, m, the interior
        x = 2.0 ** -13
        return [1.0, 1.0 + 1e-12, 1.0 + 3e-10, 1.0 + x, 1.37, 2.0, 2.0 + 1e-9,
                2.71, 3.0 - x, 3.0 - 3e-10, 3.0 - 1e-12, 3.0] + cls.OUTER

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_evaluations_are_the_distinct_abscissae_called(self, alpha):
        g, calls = self.counted()
        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        before = k.evaluations
        del calls[:]
        list(map(k, self.points(k)))
        assert k.evaluations - before == len(calls) == len(set(calls))
        del calls[:]
        list(map(k, self.points(k)))  # every t is known now
        assert calls == []

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_an_outer_panel_at_a_breakpoint_repeats_abscissae(self, alpha):
        # the nodes of the panel [2, 2.5] share the leaf at a with those of
        # [1.5, 2], and the repeated reads of their nodes are table hits
        g, calls = self.counted()
        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        k._g.table.clear()
        del calls[:]
        list(map(k, self.OUTER))
        assert 0 < len(calls) == len(set(calls)) <= 2 * 15 * 15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_non_finite_weight_raises_before_anything_is_stored(
            self, alpha, monkeypatch):
        # past the cap a leaf's nodes are read again, through the Integrand
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 0)
        g, _ = self.counted()
        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        k._g.fn = lambda x: math.nan
        with pytest.raises(EvaluationError) as info:
            list(map(k, self.points(k)[::-1]))
        assert 1.0 <= info.value.abscissa <= 3.0
        assert math.isnan(info.value.value)
        # K at a leaf end reads no g
        assert not k._dense
        assert set(k._parts) <= set(k.ends)


class TestQuadResultAlgebra:
    def test_scaled(self):
        r = QuadResult(2.0, 0.5, 30, True)
        s = r.scaled(-3.0)
        assert s.value == -6.0
        assert s.abs_error_estimate == 1.5
        assert s.evaluations == 30

    def test_add_combines_fields(self):
        r = QuadResult(2.0, 0.5, 30, True) + QuadResult(1.0, 0.25, 15, False)
        assert r.value == 3.0
        assert r.abs_error_estimate == 0.75
        assert r.evaluations == 45
        assert not r.tolerance_met


class TestInputChecks:
    # every entry point taking an interval or an order reports a bad one
    # in the same words
    INTERVAL_TAKERS = {
        "integrate_smooth": lambda a, b: integrate_smooth(math.exp, a, b),
        "integrate_singular": lambda a, b: integrate_singular(
            math.exp, a, b, 0.5, KernelSide.LOWER_SINGULAR),
        "CumulativeKernel": lambda a, b: CumulativeKernel(math.exp, a, b, 0.5),
        "integrate_odd": lambda a, b: integrate_odd(
            math.exp, 0.5, lambda x: (1.0, 0.0), (a, b)),
        "integrate_symmetric": lambda a, b: integrate_symmetric(
            math.exp, lambda t: 1.0, a, b, 0.5),
        "FracSetting": lambda a, b: FracSetting(a, b, 0.5),
        "builtin_function_corpus": builtin_function_corpus,
        "builtin_weight_corpus": builtin_weight_corpus,
    }
    ORDER_TAKERS = {
        "integrate_singular": lambda alpha: integrate_singular(
            math.exp, 0.0, 1.0, alpha, KernelSide.LOWER_SINGULAR),
        "CumulativeKernel": lambda alpha: CumulativeKernel(math.exp, 0.0, 1.0,
                                                           alpha),
        "integrate_odd": lambda alpha: integrate_odd(
            math.exp, alpha, lambda x: (1.0, 0.0), (0.0, 0.5)),
        "integrate_symmetric": lambda alpha: integrate_symmetric(
            math.exp, lambda t: 1.0, 0.0, 1.0, alpha),
        "FracSetting": lambda alpha: FracSetting(0.0, 1.0, alpha),
    }

    @pytest.mark.parametrize("name", sorted(INTERVAL_TAKERS))
    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, 0.0),
                                     (0.0, math.inf), (math.nan, 1.0)])
    def test_interval(self, name, a, b):
        with pytest.raises(DomainError) as caught:
            check_interval(a, b)
        assert str(caught.value) == f"need finite a < b, got [{a!r}, {b!r}]"
        with pytest.raises(DomainError) as again:
            self.INTERVAL_TAKERS[name](a, b)
        assert str(again.value) == str(caught.value)

    @pytest.mark.parametrize("name", sorted(INTERVAL_TAKERS))
    def test_interval_width(self, name):
        # finite ends, but b - a overflows: nodes and steps would be inf
        a, b = -1e308, 1e308
        with pytest.raises(DomainError) as caught:
            check_interval(a, b)
        assert str(caught.value) == (f"the width b - a of [{a!r}, {b!r}] "
                                     "overflows")
        with pytest.raises(DomainError) as again:
            self.INTERVAL_TAKERS[name](a, b)
        assert str(again.value) == str(caught.value)

    @pytest.mark.parametrize("name", sorted(ORDER_TAKERS))
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_order(self, name, alpha):
        with pytest.raises(DomainError) as caught:
            check_order(alpha)
        assert str(caught.value) == (f"alpha must be positive and finite, "
                                     f"got {alpha!r}")
        with pytest.raises(DomainError) as again:
            self.ORDER_TAKERS[name](alpha)
        assert str(again.value) == str(caught.value)

    def test_good_inputs_pass(self):
        assert check_interval(-1e-3, 1.0) is None
        assert check_order(1e-8) is None
