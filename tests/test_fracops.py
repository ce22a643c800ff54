"""Operator-level tests for the fractional integral pair.

Frozen reference values were computed two ways before being pinned:
with the closed Beta form where one exists and with the dense midpoint
oracle otherwise.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frachh.fracops import FracSetting, j_left, j_right
from frachh.functions import (WeightSpec, builtin_function_corpus,
                              builtin_weight_corpus)
from frachh.inequalities import Status, check_symmetry_lemma
from frachh.numerics import DomainError, gamma, integrate_smooth

HALF_UNIT = FracSetting(0.0, 1.0, 0.5)


class TestFracSetting:
    def test_properties(self):
        s = FracSetting(1.0, 3.0, 0.75)
        assert s.midpoint == 2.0
        assert s.width == 2.0

    @pytest.mark.parametrize("a,b,alpha", [
        (1.0, 1.0, 0.5),
        (2.0, 1.0, 0.5),
        (0.0, math.inf, 0.5),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, -0.5),
        (0.0, 1.0, math.nan),
    ])
    def test_rejects_bad_parameters(self, a, b, alpha):
        with pytest.raises(DomainError):
            FracSetting(a, b, alpha)


class TestOperatorValues:
    def test_unit_function_half_order(self):
        # (b-a)^alpha / Gamma(alpha+1) = 1 / Gamma(1.5) = 2 / sqrt(pi)
        for op in (j_left, j_right):
            r = op(lambda t: 1.0, HALF_UNIT)
            assert r.value == pytest.approx(1.1283791670955126, rel=1e-12)
            assert r.tolerance_met
            assert r.evaluations > 0

    def test_square_half_order(self):
        assert j_left(lambda t: t * t, HALF_UNIT).value == pytest.approx(
            0.60180222245094004, rel=1e-10)
        assert j_right(lambda t: t * t, HALF_UNIT).value == pytest.approx(
            0.22567583341910251, rel=1e-10)

    def test_order_one_is_plain_integration(self):
        s = FracSetting(0.0, 1.0, 1.0)
        for f in builtin_function_corpus(0.0, 1.0):
            plain = integrate_smooth(f.fn, 0.0, 1.0, 1e-12).value
            assert j_left(f.fn, s).value == pytest.approx(plain, rel=1e-10)
            assert j_right(f.fn, s).value == pytest.approx(plain, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0)])
    def test_constant_identity(self, alpha, interval):
        a, b = interval
        s = FracSetting(a, b, alpha)
        expected = 3.0 * (b - a) ** alpha / gamma(alpha + 1.0)
        for op in (j_left, j_right):
            assert op(lambda t: 3.0, s).value == pytest.approx(expected,
                                                               rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_reflection_swaps_sides(self, alpha):
        a, b = 1.0, 3.0
        s = FracSetting(a, b, alpha)
        h = lambda t: math.exp(t) + t * t
        reflected = lambda t: h(a + b - t)
        left = j_left(h, s)
        right = j_right(reflected, s)
        budget = left.abs_error_estimate + right.abs_error_estimate + 1e-13
        assert abs(left.value - right.value) <= budget

    @given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, c1, c2):
        s = FracSetting(0.0, 1.0, 0.7)
        combined = j_left(lambda t: c1 * math.exp(t) + c2 * t * t, s)
        parts = (c1 * j_left(math.exp, s).value
                 + c2 * j_left(lambda t: t * t, s).value)
        scale = max(1.0, abs(combined.value))
        assert abs(combined.value - parts) <= 1e-9 * scale


class TestSymmetryLemma:
    def test_requires_validated_symmetry(self):
        skewed = WeightSpec("skewed", lambda x: x, 0.0, 1.0, nonnegative=True)
        with pytest.raises(DomainError):
            check_symmetry_lemma(skewed, HALF_UNIT)
        with pytest.raises(DomainError):
            check_symmetry_lemma(lambda x: 1.0, HALF_UNIT)

    def test_rejects_weight_tied_to_another_interval(self):
        parabolic = {w.label: w for w in builtin_weight_corpus(0.0, 1.0)}[
            "parabolic"]
        with pytest.raises(DomainError, match="tied to"):
            check_symmetry_lemma(parabolic, FracSetting(1.0, 3.0, 0.5))

    def test_constant_weight(self):
        w = builtin_weight_corpus(0.0, 1.0)[0]
        report = check_symmetry_lemma(w, FracSetting(0.0, 1.0, 0.7))
        assert report.status is Status.HOLDS
        expected = 1.0 / gamma(1.7)
        assert report.lhs == pytest.approx(expected, rel=1e-10)
        assert report.rhs == pytest.approx(expected, rel=1e-10)

    def test_parabolic_weight_half_order(self):
        # Beta form: B(2, 3/2) / Gamma(1/2) = (4/15) / sqrt(pi)
        w = builtin_weight_corpus(0.0, 1.0)[1]
        report = check_symmetry_lemma(w, HALF_UNIT)
        assert report.status is Status.HOLDS
        assert report.lhs == pytest.approx(0.15045055561273502, rel=1e-10)

    def test_vee_weight_order_one(self):
        w = builtin_weight_corpus(0.0, 1.0)[2]
        report = check_symmetry_lemma(w, FracSetting(0.0, 1.0, 1.0))
        assert report.status is Status.HOLDS
        assert report.lhs == pytest.approx(0.25, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0), (-1.0, 2.0)])
    def test_full_weight_corpus(self, alpha, interval):
        s = FracSetting(interval[0], interval[1], alpha)
        for w in builtin_weight_corpus(*interval):
            report = check_symmetry_lemma(w, s)
            assert report.status is Status.HOLDS, (w.label, alpha, interval)
            scale = max(abs(report.lhs), abs(report.rhs), 1.0)
            assert abs(report.lhs - report.rhs) <= report.error_budget * scale
