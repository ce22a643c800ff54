"""Quadrature engine and cumulative kernel tests.

Closed-form values used as expectations were recomputed independently
(mpmath at 50 digits) before being frozen here.
"""

import bisect
import math

import pytest
from hypothesis import given, settings, strategies as st

import frachh.numerics
from frachh.fracops import FracSetting
from frachh.functions import builtin_function_corpus, builtin_weight_corpus
from frachh.numerics import (DEFAULT_TOL, CumulativeKernel, DomainError,
                             EvaluationError, Integrand, KERNEL_MESH_PANELS,
                             KernelSide, MAX_PANELS, QuadResult, _gk15,
                             _gk15_nodes, _graded_mesh, check_interval,
                             check_order, gamma, integrate_singular,
                             integrate_smooth)
from frachh.oracle import beta_reference

SQRT_PI = 1.7724538509055160273

# the grid of the kernel calibration; test_inequalities checks the
# exact identity values on the same grid
CALIBRATION_ALPHAS = (0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.5, 5.0)
CALIBRATION_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6), (0.0, 10.0))
# (alpha, interval) -> true error over the error estimate, where above 1
UNDER_ESTIMATED = {(0.01, (0.0, 1.0)): 3.7, (0.01, (0.0, 1e-6)): 9.5,
                   (0.01, (0.0, 10.0)): 18.6, (0.1, (0.0, 10.0)): 4.4,
                   (0.25, (0.0, 1e-6)): 1.2}


def _calibration_cases():
    for interval in CALIBRATION_INTERVALS:
        for alpha in CALIBRATION_ALPHAS:
            ratio = UNDER_ESTIMATED.get((alpha, interval))
            marks = () if ratio is None else pytest.mark.xfail(
                strict=True, reason=f"true error {ratio}x the error estimate "
                "at small alpha (ROADMAP item 2)")
            a, b = interval
            yield pytest.param(alpha, interval, marks=marks,
                               id=f"{alpha:g}-[{a:g},{b:g}]")


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

    def test_alpha_domain(self):
        for bad in (0.0, -0.5, math.nan):
            with pytest.raises(DomainError):
                integrate_singular(lambda t: 1.0, 0.0, 1.0, bad,
                                   KernelSide.UPPER_SINGULAR, 1e-9)

    def test_side_type_checked(self):
        with pytest.raises(DomainError):
            integrate_singular(lambda t: 1.0, 0.0, 1.0, 0.5, "upper", 1e-9)


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
        xs = [0.1, 0.2, 0.1, 0.3, 0.2]  # repeats inside one values(xs)
        assert read.values(xs) == [math.exp(x) for x in xs]
        assert read(0.3) == math.exp(0.3)
        assert read.values(xs[::-1]) == [math.exp(x) for x in xs[::-1]]
        assert calls == [0.1, 0.2, 0.3] and read.calls == 3
        assert read.table == {x: math.exp(x) for x in calls}

    def test_past_the_cap_a_read_calls_and_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 2)
        h, calls = self.counted()
        read = Integrand(h)
        xs = [0.1, 0.2, 0.3, 0.3]
        assert read.values(xs) == [math.exp(x) for x in xs]
        assert read(0.1) == math.exp(0.1) and read(0.3) == math.exp(0.3)
        assert calls == [0.1, 0.2, 0.3, 0.3, 0.3] and read.calls == 5
        assert list(read.table) == [0.1, 0.2]

    def test_fresh_reads_call_each_distinct_abscissa_past_the_table(self):
        h, calls = self.counted()
        read = Integrand(h)
        read(0.1)
        xs = [0.1, 0.2, 0.1]
        assert read.fresh(xs) == [math.exp(x) for x in xs]
        assert calls == [0.1, 0.1, 0.2] and read.calls == 3
        assert list(read.table) == [0.1]

    @pytest.mark.parametrize("fresh", [False, True])
    def test_a_nan_raises_at_its_abscissa_before_it_is_kept(self, fresh):
        h, calls = self.counted(lambda x: math.nan if x == 0.2 else x)
        read = Integrand(h)
        with pytest.raises(EvaluationError) as info:
            read(0.2)
        with pytest.raises(EvaluationError) as in_values:
            (read.fresh if fresh else read.values)([0.1, 0.2, 0.3])
        for error in (info.value, in_values.value):
            assert error.abscissa == 0.2 and math.isnan(error.value)
        assert read.calls == len(calls)
        assert read.table == ({} if fresh else {0.1: 0.1})

    def test_a_substituted_integral_names_the_abscissa_of_fn(self):
        # the quadrature runs in u = (b-t)^alpha, the error names t
        read = Integrand(lambda x: math.inf if x > 0.7 else 1.0)
        with pytest.raises(EvaluationError) as info:
            integrate_singular(read, 0.0, 1.0, 0.5, KernelSide.UPPER_SINGULAR)
        assert info.value.abscissa > 0.7

    def test_calls_are_the_calls_of_fn(self):
        h, calls = self.counted(lambda x: 1.0 + x * x)
        read = Integrand(h)
        integrate_smooth(read, 0.0, 1.0)
        integrate_singular(read, 0.0, 1.0, 0.75, KernelSide.LOWER_SINGULAR)
        k = CumulativeKernel(read, 0.0, 1.0, 1.25)
        k.values(_gk15_nodes(0.2, 0.6))
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
        # t = 1e-12 and 1 - 1e-12 lie inside the end panels (2.3e-10
        # wide), so they reach both substituted partial-panel branches
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

    def test_graded_mesh_increases(self):
        # regression: the right half of the graded mesh must ascend
        for panels in (32, 64, 128, 512):
            pts = _graded_mesh(0.0, 1.0, panels)
            assert pts[0] == 0.0 and pts[-1] == 1.0
            assert all(x < y for x, y in zip(pts, pts[1:])), panels

    def test_unit_weight_kernel_vanishes_at_midpoint(self):
        for alpha in (0.3, 1.0, 2.0):
            k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, alpha)
            assert len(k.breakpoints) == KERNEL_MESH_PANELS + 1
            assert k(0.5) == pytest.approx(0.0, abs=1e-9), alpha

    def test_evaluation_counter_grows(self):
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 0.5)
        before = k.evaluations
        k(0.33)
        assert k.evaluations > before

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_repeated_abscissa_costs_nothing(self, alpha):
        k = CumulativeKernel(lambda s: 1.0 + s * s, 0.0, 1.0, alpha)
        before = k.evaluations
        first = k(0.37)
        assert k.evaluations == before + 15
        second = k(0.37)
        assert second == first
        assert k.evaluations == before + 15

    def test_out_of_range_still_raises_after_calls(self):
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 0.5)
        for t in (0.0, 0.4, 1.0):
            k(t)
        for t in (-1e-12, 1.0 + 1e-12, math.nan):
            with pytest.raises(DomainError):
                k(t)

    @pytest.mark.parametrize("alpha,interval", list(_calibration_cases()))
    def test_constant_weight_meets_its_error_estimate(self, alpha, interval):
        # g = 1: K(t) = ((t-a)^alpha - (b-t)^alpha) / alpha, at 1,001 points
        a, b = interval
        k = CumulativeKernel(lambda s: 1.0, a, b, alpha)
        ts = [a + (b - a) * i / 1000 for i in range(1001)]
        exact = [((t - a) ** alpha - (b - t) ** alpha) / alpha for t in ts]
        allowed = k.abs_error_estimate + 8 * math.ulp(max(map(abs, exact)))
        assert max(abs(k(t) - e) for t, e in zip(ts, exact)) <= allowed

    # (a, b, alpha) where a partial panel at or one ulp inside an end,
    # with one side substituted, read the other side's kernel at that end:
    # 1/0, or an overflow on [1e-300, 1.2e-9]
    END_CASES = [(0.5, 1.5, 0.5), (1.0, 3.0, 0.25), (0.0, 1.0, 0.5),
                 (1e-300, 1.198676303231777e-09, 0.018391169842110686),
                 (1000.0, 1000.0060321960971, 0.3891522660358974)]

    @staticmethod
    def _at_the_ends(a, b, alpha):
        k = CumulativeKernel(lambda s: 1.0, a, b, alpha)
        ts = (a, math.nextafter(a, b), math.nextafter(b, a), b)
        return k, [k(t) for t in ts], [
            ((t - a) ** alpha - (b - t) ** alpha) / alpha for t in ts]

    @pytest.mark.parametrize("a,b,alpha", END_CASES)
    def test_finite_at_and_next_to_the_ends(self, a, b, alpha):
        _, values, _ = self._at_the_ends(a, b, alpha)
        assert all(map(math.isfinite, values))

    @pytest.mark.parametrize("a,b,alpha", [
        *END_CASES[:-1], pytest.param(*END_CASES[-1], marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: K(a) misses -(b-a)^alpha/"
            "alpha by 1.8e-8, 67x its estimate; the same width at 0 is "
            "exact to 6e-17"))])
    def test_constant_weight_next_to_the_ends(self, a, b, alpha):
        # g = 1 as in the calibration, at a, b and one ulp inside each
        k, values, exact = self._at_the_ends(a, b, alpha)
        allowed = (k.abs_error_estimate
                   + 8 * math.ulp((b - a) ** alpha / alpha))
        assert max(abs(v - e) for v, e in zip(values, exact)) <= allowed

    # Kernels of one weight on one interval share a store: an Integrand of
    # g and a dict of partial panels.  The 200 points include both end
    # panels (4.7e-10 wide), where the alpha = 0.5 kernel substitutes one side
    SHARED_ALPHAS = (0.5, 1.25, 2.5)
    POINTS = ([1.0 + 2.0 * i / 195 for i in range(196)]
              + [1.0 + 1e-12, 1.0 + 3e-10, 3.0 - 3e-10, 3.0 - 1e-12])

    @staticmethod
    def bump():
        return {w.label: w for w in builtin_weight_corpus(1.0, 3.0)}["bump"].fn

    @staticmethod
    def store():
        """An empty store: an Integrand, whose fn shared_run sets, and a
        dict of partial panels."""
        return Integrand(None), {}

    def shared_run(self, alphas, store, tol=DEFAULT_TOL):
        """(values, calls) of one kernel per alpha on store, where
        calls[i] lists the abscissae kernel i called g at."""
        bump, calls, values = self.bump(), [], []
        read, partials = store

        def g(x):
            calls[-1].append(x)
            return bump(x)

        read.fn = g
        for alpha in alphas:
            calls.append([])
            k = CumulativeKernel(read, 1.0, 3.0, alpha, tol, partials)
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
        values, calls = self.shared_run(self.SHARED_ALPHAS, self.store())
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 10)
        read, partials = store = self.store()
        capped, capped_calls = self.shared_run(self.SHARED_ALPHAS, store)
        assert capped == values
        assert [len(read.table), len(partials)] == [10, 10]
        assert sum(map(len, capped_calls)) > sum(map(len, calls))

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_substituted_sides_call_g_once_per_abscissa(self, alpha):
        # near t = 1 + 1e-12 and t = 3, rounding maps nodes of a substituted
        # side, and of the plain side, onto one float: each is called once
        bump, calls = self.bump(), []

        def g(x):
            calls.append(x)
            return bump(x)

        for batch in (False, True):
            k = CumulativeKernel(g, 1.0, 3.0, alpha)
            for ts in [self.POINTS] if batch else [[t] for t in self.POINTS]:
                before = k.evaluations
                del calls[:]
                k.values(ts)
                assert k.evaluations - before == len(calls) == len(set(calls))

    def test_non_finite_weight_is_caught_before_it_is_stored(self):
        read, partials = Integrand(self.bump()), {}
        k = CumulativeKernel(read, 1.0, 3.0, 1.25, partials=partials)
        k(2.37)
        sizes = [len(read.table), len(partials)]
        read.fn = lambda x: math.nan
        with pytest.raises(EvaluationError) as info:
            k(2.41)
        lo = k.breakpoints[bisect.bisect_right(k.breakpoints, 2.41) - 1]
        assert info.value.abscissa in _gk15_nodes(lo, 2.41)
        assert math.isnan(info.value.value)
        assert [len(read.table), len(partials)] == sizes


class TestKernelCallsGOncePerNode:
    """g is called once per node: both sides of K read the same value."""

    @staticmethod
    def counted(g):
        calls = []

        def h(x):
            calls.append(x)
            return g(x)

        return h, calls

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_evaluations_are_the_calls_made(self, alpha):
        g, calls = self.counted(lambda s: 1.0 + math.cos(3.0 * s))
        k = CumulativeKernel(g, 0.0, 1.0, alpha)
        assert k.evaluations == len(calls)
        # interior t, and t in both end panels (substituted for alpha < 1)
        for t in (0.37, 0.5, 0.81, 1e-12, 1.0 - 1e-12, 0.37):
            k(t)
            assert k.evaluations == len(calls), t

    def test_partial_panel_cost(self):
        k = CumulativeKernel(lambda s: 1.0, 0.0, 1.0, 0.5)
        for t, cost in ((0.37, 15), (1e-12, 30), (1.0 - 1e-12, 30)):
            before = k.evaluations
            k(t)
            assert k.evaluations == before + cost, t

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.25, 4.0])
    def test_paired_value_is_the_two_rule_value(self, alpha):
        a, b = 1.0, 3.0
        g = lambda s: math.exp(-((s - 1.7) ** 2))
        k = CumulativeKernel(g, a, b, alpha)
        bp = k.breakpoints
        for t in (1.0 + 1e-3, 1.37, 2.0 + 1e-9, 2.5, 2.93):
            i = bisect.bisect_right(bp, t) - 1
            lo = bp[i]
            assert alpha >= 1.0 or a < lo < bp[i + 1] < b  # not substituted
            xs = _gk15_nodes(lo, t)
            upper = _gk15([(b - s) ** (alpha - 1.0) * g(s) for s in xs], lo, t)
            lower = _gk15([(s - a) ** (alpha - 1.0) * g(s) for s in xs], lo, t)
            prefix = (k._prefix_upper[i] + k._prefix_lower[i]
                      - k._total_lower)
            assert k(t) == prefix + upper[0] / 1.0 + lower[0] / 1.0, t

    def test_no_abscissa_twice_in_a_partial_panel(self):
        g, calls = self.counted(lambda s: 2.0 + s)
        k = CumulativeKernel(g, 0.0, 1.0, 1.5)
        for t in (0.11, 0.5 + 1e-6, 0.93):
            del calls[:]
            k(t)
            assert len(calls) == len(set(calls)) == 15, t

    def test_build_calls_are_distinct(self):
        g, calls = self.counted(lambda s: 1.0 + s * s)
        CumulativeKernel(g, 0.0, 1.0, 0.75)
        assert len(calls) == len(set(calls))


class TestKernelValues:
    """values(ts) is K at every t of ts, with g called once per distinct
    abscissa of the call's new partial panels."""

    ALPHAS = (0.25, 0.5, 1.25, 2.5)
    # an outer G7/K15 panel on [1, 3] that is the mesh panel [2, 2.5]:
    # node k of [2, t_j] and node j of [2, t_k] often round alike
    OUTER = _gk15_nodes(2.0, 2.5)

    @staticmethod
    def counted():
        return TestKernelCallsGOncePerNode.counted(TestCumulativeKernel.bump())

    @classmethod
    def points(cls, k):
        # a and b, both end panels (4.7e-10 wide), breakpoints, the interior
        bp = k.breakpoints
        return [1.0, 1.0 + 1e-12, 1.0 + 3e-10, bp[3], 1.37, 2.0, 2.0 + 1e-9,
                2.71, bp[-4], 3.0 - 3e-10, 3.0 - 1e-12, 3.0] + cls.OUTER

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_batch_is_the_single_calls_bit_for_bit(self, alpha):
        g, _ = self.counted()
        batch = CumulativeKernel(g, 1.0, 3.0, alpha)
        single = CumulativeKernel(g, 1.0, 3.0, alpha)
        ts = self.points(batch)
        assert batch.values(ts) == [single(t) for t in ts]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_evaluations_are_the_distinct_abscissae_called(self, alpha):
        g, calls = self.counted()
        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        before = k.evaluations
        del calls[:]
        k.values(self.points(k))
        assert k.evaluations - before == len(calls) == len(set(calls))
        del calls[:]
        k.values(self.points(k))  # every t is known now
        assert calls == []

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_an_outer_panel_at_a_breakpoint_repeats_abscissae(self, alpha):
        g, calls = self.counted()
        k = CumulativeKernel(g, 1.0, 3.0, alpha)
        del calls[:]
        k.values(self.OUTER)
        assert len(calls) == len(set(calls)) == 171  # of 15 x 15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_non_finite_weight_raises_before_anything_is_stored(self, alpha):
        g, _ = self.counted()
        read = Integrand(g)
        k = CumulativeKernel(read, 1.0, 3.0, alpha)
        bad = set()

        def nan_near_a(x):
            if x < 1.0 + 1e-9:  # the first end panel and its neighbour
                bad.add(x)
                return math.nan
            return g(x)

        read.fn = nan_near_a
        with pytest.raises(EvaluationError) as info:
            k.values(self.points(k)[::-1])  # the bad panels last
        assert info.value.abscissa in bad
        assert math.isnan(info.value.value)
        assert k._partial == {} and k._values == {}


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
        "FracSetting": lambda a, b: FracSetting(a, b, 0.5),
        "builtin_function_corpus": builtin_function_corpus,
        "builtin_weight_corpus": builtin_weight_corpus,
    }
    ORDER_TAKERS = {
        "integrate_singular": lambda alpha: integrate_singular(
            math.exp, 0.0, 1.0, alpha, KernelSide.LOWER_SINGULAR),
        "CumulativeKernel": lambda alpha: CumulativeKernel(math.exp, 0.0, 1.0,
                                                           alpha),
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
