"""Verifier-level tests.

Reference numbers in this file were frozen from an independent
high-precision recomputation (50-digit arithmetic) before the
verifiers existed; the tests then pin both the values and the
statuses.
"""

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frachh.fracops
import frachh.functions
import frachh.inequalities
import frachh.numerics
from frachh.fracops import FracSetting, j_left, j_right
from frachh.functions import (ConvexityKind, FunctionSpec, HolderPair,
                              WeightSpec, builtin_function_corpus,
                              builtin_weight_corpus, sup_norm)
from frachh.inequalities import (ERROR_FLOOR, GRAY_FACTOR, WEIGHTED_BOUNDS,
                                 Cell, Status, _bound,
                                 _identity, _sandwich, aux_integrals,
                                 check_symmetry_lemma, fejer_classical,
                                 fejer_fractional, hh_classical,
                                 scalar_power_lemma, weighted_bound,
                                 weighted_trapezoid_identity)
from frachh.numerics import (DEFAULT_TOL, DomainError, QuadResult, gamma,
                             integrate_symmetric)

HALF_UNIT = FracSetting(0.0, 1.0, 0.5)
# the grid of the kernel calibration in test_numerics
CALIBRATION_ALPHAS = (0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.5, 5.0)
CALIBRATION_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.0, 1e-6), (0.0, 10.0),
                         (10.0, 10.5))
UNIT_FUNCS = {f.label: f for f in builtin_function_corpus(0.0, 1.0)}
UNIT_WEIGHTS = {w.label: w for w in builtin_weight_corpus(0.0, 1.0)}

# affine functions make every defect vanish, so each bound must hold
# with the observed side at zero
AFFINE = FunctionSpec("affine", lambda x: 2.0 * x + 1.0, lambda x: 2.0,
                      ConvexityKind.ANALYTIC_DERIV_CONVEX, 0.0, 1.0)


def scaling_factor(s: FracSetting) -> float:
    # j_left(1) + j_right(1), the weight mass of g = 1
    return 2.0 * s.width ** s.alpha / gamma(s.alpha + 1.0)


# reports whose deciding margin, slack or residual is x; every value
# stays below 1 in size, so the budget is the same for every x tried
EDGE_REPORTS = {
    "sandwich": lambda x: _sandwich(0.0, x, 0.9, 0.05, 0, ()),
    "bound": lambda x: _bound(0.0, x, 0.05, 0, ()),
    "identity": lambda x: _identity(QuadResult(0.0, 0.05, 0),
                                    QuadResult(x, 0.0, 0), 0, ()),
    "lemma-1-6": lambda x: scalar_power_lemma(2.0, 2.0 + x, 0.5),
}
EDGE_STEPS = {
    "0": lambda B: 0.0,
    "B": lambda B: B,
    "below B": lambda B: math.nextafter(B, -math.inf),
    "above B": lambda B: math.nextafter(B, math.inf),
    "-B": lambda B: -B,
    "below -B": lambda B: math.nextafter(-B, -math.inf),
    "10 B": lambda B: GRAY_FACTOR * B,
    "above 10 B": lambda B: math.nextafter(GRAY_FACTOR * B, math.inf),
}


class TestStatusBuilders:
    @pytest.mark.parametrize("kind,step,expected", [
        *((kind, step, expected) for kind in ("sandwich", "bound")
          for step, expected in (("B", Status.HOLDS),
                                 ("below B", Status.INCONCLUSIVE),
                                 ("-B", Status.INCONCLUSIVE),
                                 ("below -B", Status.VIOLATED))),
        ("identity", "B", Status.HOLDS),
        ("identity", "above B", Status.INCONCLUSIVE),
        ("identity", "10 B", Status.INCONCLUSIVE),
        ("identity", "above 10 B", Status.VIOLATED),
        ("lemma-1-6", "0", Status.HOLDS),
    ])
    def test_verdict_edges(self, kind, step, expected):
        build = EDGE_REPORTS[kind]
        budget = build(0.0).error_budget
        r = build(EDGE_STEPS[step](budget))
        assert r.error_budget == budget
        assert r.status is expected

    def test_sandwich_holds(self):
        r = _sandwich(1.0, 2.0, 3.0, 1e-9, 10, ())
        assert r.status is Status.HOLDS
        assert r.margin_lower == 1.0 and r.margin_upper == 1.0

    def test_sandwich_violated_iff_margin_below_negative_budget(self):
        assert _sandwich(1.0, 2.0, 1.5, 1e-9, 0, ()).status is Status.VIOLATED
        assert _sandwich(2.0, 1.5, 3.0, 1e-9, 0, ()).status is Status.VIOLATED
        # margin inside the budget is not a violation
        r = _sandwich(1.0, 2.0, 2.0 - 1e-12, 1e-9, 0, ())
        assert r.status is Status.INCONCLUSIVE

    def test_sandwich_inconclusive_on_equality(self):
        assert _sandwich(1.0, 1.0, 1.0, 1e-9, 0, ()).status is \
            Status.INCONCLUSIVE

    def test_violation_wins_over_ambiguity(self):
        # lower margin deep negative, upper margin tiny
        r = _sandwich(2.0, 1.0, 1.0, 1e-9, 0, ())
        assert r.status is Status.VIOLATED

    def test_bound_statuses(self):
        assert _bound(1.0, 2.0, 1e-9, 0, ()).status is Status.HOLDS
        assert _bound(2.0, 1.0, 1e-9, 0, ()).status is Status.VIOLATED
        assert _bound(1.0, 1.0 + 1e-12, 1e-9, 0, ()).status is \
            Status.INCONCLUSIVE
        # observed exceeds the bound by exactly the whole budget
        r = _bound(2.0, 1.0, 1.0 - 2e-12, 0, ())
        assert (r.slack, r.error_budget) == (-1.0, 1.0)
        assert r.status is Status.INCONCLUSIVE

    def test_bound_budget_includes_floor(self):
        r = _bound(1.0, 2.0, 0.0, 0, ())
        assert r.error_budget >= 1e-12 * 2.0

    def test_identity_statuses(self):
        assert _identity(QuadResult(1.0, 1e-10, 0),
                         QuadResult(1.0 + 1e-13, 0.0, 0), 0, ()).status is \
            Status.HOLDS
        # gray zone: within 10x budget
        assert _identity(QuadResult(1.0, 1e-9, 0),
                         QuadResult(1.0 + 5e-9, 0.0, 0), 0, ()).status is \
            Status.INCONCLUSIVE
        assert _identity(QuadResult(1.0, 1e-9, 0),
                         QuadResult(2.0, 0.0, 0), 0, ()).status is \
            Status.VIOLATED

    def test_identity_flag_forces_inconclusive(self):
        r = _identity(QuadResult(1.0, 1e-10, 0, False),
                      QuadResult(1.0, 0.0, 0), 0, ())
        assert r.status is Status.INCONCLUSIVE
        assert "quadrature tolerance not met" in r.notes

    def test_non_finite_values_raise(self):
        # nan and inf fail every comparison, so no verdict is given
        with pytest.raises(OverflowError):
            _sandwich(1.0, math.inf, 3.0, 1e-9, 0, ())
        with pytest.raises(OverflowError):
            _bound(math.nan, 1.0, 1e-9, 0, ())
        with pytest.raises(OverflowError):
            _bound(1.0, 2.0, math.inf, 0, ())
        with pytest.raises(OverflowError):
            _identity(QuadResult(1.0, 1e-9, 0), QuadResult(math.nan, 0.0, 0),
                      0, ())

    def test_identity_budget_is_relative(self):
        r = _identity(QuadResult(100.0, 1e-8, 0), QuadResult(100.0, 0.0, 0),
                      0, ())
        assert max(abs(r.lhs), abs(r.rhs), 1.0) == 100.0
        assert r.error_budget == pytest.approx(1e-8 / 100.0 + 1e-12)


class TestClassicalSandwiches:
    def test_exponential_values(self):
        r = hh_classical(UNIT_FUNCS["exp"], 0.0, 1.0)
        assert r.status is Status.HOLDS
        assert r.lhs == pytest.approx(1.6487212707001282, rel=1e-12)
        assert r.mid == pytest.approx(math.e - 1.0, rel=1e-10)
        assert r.rhs == pytest.approx(1.8591409142295225, rel=1e-12)

    def test_weighted_square_against_parabolic(self):
        r = fejer_classical(UNIT_FUNCS["sq"], UNIT_WEIGHTS["parabolic"])
        assert r.status is Status.HOLDS
        assert r.lhs == pytest.approx(1.0 / 24.0, rel=1e-10)
        assert r.mid == pytest.approx(1.0 / 20.0, rel=1e-10)
        assert r.rhs == pytest.approx(1.0 / 12.0, rel=1e-10)
        assert any("no 1/(b-a) factor" in n for n in r.notes)

    def test_affine_is_inconclusive(self):
        # f(m) = mean = avg: both margins are rounding, and one pass says so
        r = hh_classical(AFFINE, 0.0, 1.0)
        assert r.status is Status.INCONCLUSIVE
        assert r.notes == ()
        assert abs(r.margin_lower) <= r.error_budget
        assert abs(r.margin_upper) <= r.error_budget

    def test_concave_function_needs_force(self):
        with pytest.raises(DomainError):
            hh_classical(lambda x: -x * x, 0.0, 1.0)
        r = hh_classical(lambda x: -x * x, 0.0, 1.0, force=True)
        assert r.status is Status.VIOLATED
        assert any(n.startswith("hypotheses unmet") for n in r.notes)

    def test_raw_callable_is_not_certified(self):
        # convex, but a raw callable states no certification and the
        # gate samples nothing in its place
        convex = lambda x: math.exp(2.0 * x)
        with pytest.raises(DomainError, match=r"'<lambda>' is not certified "
                           r"convex on \[0\.0, 1\.0\]"):
            hh_classical(convex, 0.0, 1.0)
        r = hh_classical(convex, 0.0, 1.0, force=True)
        assert r.status is Status.HOLDS
        assert r.notes == ("hypotheses unmet: '<lambda>' is not certified "
                           "convex on [0.0, 1.0]",)

    def test_interval_validated(self):
        with pytest.raises(DomainError):
            hh_classical(UNIT_FUNCS["sq"], 1.0, 0.0)

    def test_weight_type_enforced(self):
        with pytest.raises(DomainError):
            fejer_classical(UNIT_FUNCS["sq"], lambda x: 1.0)

    def test_negative_weight_needs_force(self):
        # -|x - 1/2| is symmetric about 1/2 and <= 0
        neg = WeightSpec("neg-vee", lambda x: -abs(x - 0.5), 0.0, 1.0,
                         symmetric=True)
        with pytest.raises(DomainError):
            fejer_classical(UNIT_FUNCS["sq"], neg)
        r = fejer_classical(UNIT_FUNCS["sq"], neg, force=True)
        assert any("not nonnegative" in n for n in r.notes)


class TestFractionalSandwiches:
    def test_square_half_order(self):
        r = fejer_fractional(UNIT_FUNCS["sq"], None, HALF_UNIT)
        assert r.status is Status.HOLDS
        assert r.lhs == 0.25
        assert r.mid == pytest.approx(11.0 / 30.0, rel=1e-10)
        assert r.rhs == 0.5

    def test_weighted_square_half_order(self):
        r = fejer_fractional(UNIT_FUNCS["sq"], UNIT_WEIGHTS["parabolic"],
                             HALF_UNIT)
        assert r.status is Status.HOLDS
        assert r.lhs == pytest.approx(0.075225277806367505, rel=1e-10)
        assert r.mid == pytest.approx(0.093136058236455006, rel=1e-10)
        assert r.rhs == pytest.approx(0.15045055561273501, rel=1e-10)

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0), (-1.0, 2.0)])
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.5])
    def test_corpus_sandwich(self, interval, alpha):
        s = FracSetting(interval[0], interval[1], alpha)
        fs = builtin_function_corpus(*interval)
        ws = builtin_weight_corpus(*interval)
        for f in fs:
            r = fejer_fractional(f, None, s)
            assert r.status is Status.HOLDS, (f.label, alpha, interval)
            for w in ws:
                r = fejer_fractional(f, w, s)
                assert r.status is Status.HOLDS, (f.label, w.label, alpha,
                                                  interval)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the unit "
                       "weight's one substituted panel over [a, b] "
                       "(integrate_symmetric) straddles the kink at the "
                       "midpoint, and its error estimate misses the error")
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("label", ["abs", "plin"])
    def test_kinked_mean_meets_its_closed_form(self, label, alpha):
        # f is linear, c0 + c1 t, on each half of [0, 1], so mid =
        # alpha/2 int_0^1 [t^(alpha-1) + (1-t)^(alpha-1)] f(t) dt
        # integrates term by term; for plin at 0.5 it is 1/4 + (sqrt 2 - 1)/2
        pieces = {"abs": ((0.0, 0.5, 0.5, -1.0), (0.5, 1.0, -0.5, 1.0)),
                  "plin": ((0.0, 0.5, 0.5, -1.0), (0.5, 1.0, -1.0, 2.0))}

        def moments(lo, hi, c0, c1):  # of t^(alpha-1) (c0 + c1 t)
            return [c0 * (hi ** alpha - lo ** alpha) / alpha,
                    c1 * (hi ** (alpha + 1.0) - lo ** (alpha + 1.0))
                    / (alpha + 1.0)]

        terms = []
        for lo, hi, c0, c1 in pieces[label]:  # (1-t)^(alpha-1) via u = 1-t
            terms += moments(lo, hi, c0, c1)
            terms += moments(1.0 - hi, 1.0 - lo, c0 + c1, -c1)
        exact = alpha / 2.0 * math.fsum(terms)
        r = fejer_fractional(UNIT_FUNCS[label], None,
                             FracSetting(0.0, 1.0, alpha))
        assert abs(r.mid - exact) <= r.error_budget

    def test_asymmetric_weight_needs_force(self):
        # x >= 0 on [0, 1]; x and 1 - x differ, so not symmetric
        ramp = WeightSpec("ramp", lambda x: x, 0.0, 1.0, nonnegative=True)
        s = FracSetting(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            fejer_fractional(UNIT_FUNCS["exp"], ramp, s)
        r = fejer_fractional(UNIT_FUNCS["exp"], ramp, s, force=True)
        # the middle term exceeds the right term once symmetry is dropped
        assert r.status is Status.VIOLATED
        assert any("not midpoint-symmetric" in n for n in r.notes)

    def test_weight_interval_mismatch(self):
        with pytest.raises(DomainError):
            fejer_fractional(UNIT_FUNCS["sq"], UNIT_WEIGHTS["parabolic"],
                             FracSetting(1.0, 3.0, 0.5))


class TestReductions:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 3.0)])
    def test_classical_sandwich_is_the_order_one_fractional_one(self, a, b):
        for f in builtin_function_corpus(a, b):
            assert hh_classical(f, a, b) == fejer_fractional(
                f, None, FracSetting(a, b, 1.0)), f.label

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0, 1.5, 3.0])
    def test_no_weight_is_the_unit_weight(self, a, b, alpha):
        # W = 1 exactly; the mean is Gamma(alpha+1) / (2 (b-a)^alpha)
        # (J f + J f): one integrate_symmetric in the band, j_left + j_right
        # bit for bit elsewhere; and the defect of 1.4 is the same scaling
        # of j_left + j_right of avg - f, bit for bit at every order
        s = FracSetting(a, b, alpha)
        g_alpha = gamma(alpha)
        scale = gamma(alpha + 1.0) / (2.0 * s.width ** alpha)
        for f in builtin_function_corpus(a, b):
            cell = Cell(f, None, s, DEFAULT_TOL)
            assert cell.both("g") == QuadResult(1.0, 0.0, 0, True)
            mean = cell.both("fg")
            if 0.25 <= alpha <= 0.5:
                sides = integrate_symmetric(
                    f.fn, None, a, b, alpha, DEFAULT_TOL * g_alpha * alpha
                ).scaled(2.0 * (1.0 / g_alpha) * (1.0 / alpha))
            else:
                sides = j_left(f.fn, s) + j_right(f.fn, s)
            assert mean == sides.scaled(scale), f.label
            avg = 0.5 * f(a) + 0.5 * f(b)
            defect = lambda x: avg - f(x)
            assert cell.weighted_defect == (
                j_left(defect, s) + j_right(defect, s)).scaled(scale), f.label

    @pytest.mark.parametrize("of", ["f", "g", "fg"])
    def test_order_one_sides_are_one_integral(self, of):
        f, g = UNIT_FUNCS["exp"], UNIT_WEIGHTS["parabolic"]
        cell = Cell(f, g, FracSetting(0.0, 1.0, 1.0), 1e-9)
        left = cell.j(j_left, of)
        spent = cell.evaluations
        assert spent > 0
        # the kernel is 1: the right side reads the left side's mirrored
        # nodes, and only the panel at its own end sums them otherwise, so
        # the two agree within their estimates (exp: 1.7182818284590462
        # and 1.718281828459046)
        right = cell.j(j_right, of)
        assert cell.evaluations == spent
        assert right.evaluations == left.evaluations
        assert abs(right.value - left.value) <= (
            left.abs_error_estimate + right.abs_error_estimate)
        # at any other order the right side is an integral of its own
        # at any other order the right side is an integral of its own, a
        # memo entry of its own, though on the end rule it reads the left
        # side's antisymmetric nodes through the memo's tables
        cell = Cell(f, g, FracSetting(0.0, 1.0, 0.5), 1e-9)
        left = cell.j(j_left, of)
        entries, spent = len(cell.memo), cell.evaluations
        right = cell.j(j_right, of)
        assert len(cell.memo) == entries + 1
        assert cell.evaluations == spent
        assert right.evaluations == left.evaluations
        if of != "g":  # exp is not symmetric about m
            assert right.value != left.value

    @pytest.mark.parametrize("flabel", ["sq", "exp", "quart"])
    def test_order_one_weighted_form_doubles_the_classical_one(self, flabel):
        s = FracSetting(0.0, 1.0, 1.0)
        f = UNIT_FUNCS[flabel]
        for w in builtin_weight_corpus(0.0, 1.0):
            frac = fejer_fractional(f, w, s)
            classical = fejer_classical(f, w)
            assert frac.lhs == 2.0 * classical.lhs, w.label
            assert frac.mid == 2.0 * classical.mid, w.label
            assert frac.rhs == 2.0 * classical.rhs, w.label

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_unit_weight_rescales_to_plain_fractional_form(self, alpha):
        s = FracSetting(0.0, 1.0, alpha)
        w = scaling_factor(s)
        for flabel in ("sq", "exp"):
            f = UNIT_FUNCS[flabel]
            frac = fejer_fractional(f, UNIT_WEIGHTS["one"], s)
            plain = fejer_fractional(f, None, s)
            assert frac.lhs == pytest.approx(w * plain.lhs, rel=1e-10)
            assert frac.mid == pytest.approx(w * plain.mid, rel=1e-10)
            assert frac.rhs == pytest.approx(w * plain.rhs, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_unit_weight_bound_rescales_to_plain_bound(self, alpha):
        s = FracSetting(0.0, 1.0, alpha)
        w = scaling_factor(s)
        f = UNIT_FUNCS["sq"]
        weighted = weighted_bound("bound-2-4", f, UNIT_WEIGHTS["one"], s)
        plain = weighted_bound("bound-1-5", f, None, s)
        assert weighted.bound == pytest.approx(w * plain.bound, rel=1e-12)
        assert weighted.observed == pytest.approx(w * plain.observed,
                                                  rel=1e-9, abs=1e-12)


class TestValueTables:
    """Cells sharing a memo read f, f' and g through one value table each."""

    def test_no_abscissa_is_called_twice(self):
        calls = {"f": [], "g": []}

        def counted(fn, key):
            def wrapper(x):
                calls[key].append(x)
                return fn(x)
            return wrapper

        f = dataclasses.replace(UNIT_FUNCS["exp"],
                                fn=counted(math.exp, "f"))
        g = dataclasses.replace(UNIT_WEIGHTS["bump"],
                                fn=counted(UNIT_WEIGHTS["bump"].fn, "g"))
        memo, charged = {}, 0
        for alpha in (0.5, 1.0, 1.25):
            for tol in (1e-9, 1e-11):
                cell = Cell(f, g, FracSetting(0.0, 1.0, alpha), tol, memo)
                cell.j(j_left, "fg")
                for of in ("g", "fg"):
                    cell.both(of)
                cell.kernel  # its build reads the table of g too
                charged += cell.evaluations
        for xs in calls.values():
            assert len(xs) == len(set(xs)) > 0
        assert charged == len(calls["f"]) + len(calls["g"])

    def test_tighter_tolerance_reuses_the_coarse_nodes(self):
        # the end rule bisects Runge's function further at 1e-13 than at
        # 1e-9 (alpha 0.4); refinement only extends, so the finer pass
        # reads every coarse node from the table and calls f only at the
        # nodes it adds
        f = dataclasses.replace(UNIT_FUNCS["exp"],
                                fn=lambda x: 1.0 / (1.0 + 25.0 * x * x))
        s = FracSetting(0.0, 1.0, 0.4)

        def nodes(tol):  # the abscissae j_left(f) reads at tol, alone
            memo = {}
            Cell(f, None, s, tol, memo).j(j_left, "fg")
            return set(memo["integrands"]["fn", f.fn].table)

        memo = {}
        coarse_cell = Cell(f, None, s, 1e-9, memo)
        coarse = coarse_cell.j(j_left, "fg")
        # a cell counts the memo's calls since it was made, later cells' too
        coarse_calls = coarse_cell.evaluations
        fine_cell = Cell(f, None, s, 1e-13, memo)
        fine = fine_cell.j(j_left, "fg")
        coarse_nodes, fine_nodes = nodes(1e-9), nodes(1e-13)
        assert fine.evaluations > coarse.evaluations
        assert coarse_calls == len(coarse_nodes) and coarse_nodes < fine_nodes
        assert fine_cell.evaluations == len(fine_nodes - coarse_nodes)

    def test_derivative_has_a_table_of_its_own(self):
        # exp is its own derivative: the row counts must not depend on it
        exp = UNIT_FUNCS["exp"]
        assert exp.fn is exp.deriv
        memo = {}
        r = weighted_trapezoid_identity(exp, None, HALF_UNIT, memo=memo)
        copy = dataclasses.replace(exp, deriv=lambda x: math.exp(x))
        assert weighted_trapezoid_identity(
            copy, None, HALF_UNIT).evaluations == r.evaluations
        roles = sorted(role for role, _ in memo["integrands"])
        assert roles == ["deriv", "fn"]

    def test_a_full_table_keeps_nothing_more(self, monkeypatch):
        # past TABLE_CAP a read calls fn and keeps nothing: the values
        # are those of an unbounded table, and every call is counted
        monkeypatch.setattr(frachh.numerics, "TABLE_CAP", 10)
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        memo = {}
        cell = Cell(dataclasses.replace(UNIT_FUNCS["exp"], fn=exp), None,
                    HALF_UNIT, 1e-9, memo)
        assert cell.both("fg") == Cell(UNIT_FUNCS["exp"], None, HALF_UNIT,
                                       1e-9).both("fg")
        assert cell.evaluations == len(calls) > 10
        assert [len(read.table)
                for read in memo["integrands"].values()] == [10]

    def test_point_values_are_read_through_the_memo(self):
        # f(a), f(m), f(b) and |f'| at a and b are reads of the memo's
        # tables like every quadrature node: statements, orders and
        # tolerances on [0, 1e-6] call f and f' only through their
        # Integrands, at most once per abscissa, and the tables hold them
        a, b = 0.0, 1e-6
        spec = {f.label: f for f in builtin_function_corpus(a, b)}["sq"]
        g = {w.label: w for w in builtin_weight_corpus(a, b)}["bump"]
        table = frachh.numerics.Integrand.__call__.__code__
        reads = {"fn": [], "deriv": []}

        def recorded(fn, role):
            def read(x):
                assert sys._getframe(1).f_code is table, (role, x)
                reads[role].append(x)
                return fn(x)
            return read

        f, memo = dataclasses.replace(
            spec, fn=recorded(spec.fn, "fn"),
            deriv=recorded(spec.deriv, "deriv")), {}
        for alpha in (0.5, 1.0, 1.5):
            s = FracSetting(a, b, alpha)
            for tol in (1e-9, 1e-11):
                fejer_fractional(f, g, s, tol, memo=memo)
                weighted_bound("bound-2-4", f, g, s, tol=tol, memo=memo)
                weighted_trapezoid_identity(f, g, s, tol, memo=memo)
        for role, fn, points in (("fn", f.fn, (a, (a + b) / 2, b)),
                                 ("deriv", f.deriv, (a, b))):
            assert len(reads[role]) == len(set(reads[role])) > 0, role
            assert set(points) <= set(memo["integrands"][role, fn].table)

    def test_kernel_partial_panels_stay_out_of_the_table(self):
        # K's build reads g through the memo's table of g, which J(g)
        # shares, and K(t) on [lo, t] reads again only nodes of the
        # build's panels, which the table holds
        memo, g = {}, UNIT_WEIGHTS["bump"]
        cell = Cell(None, g, HALF_UNIT, 1e-9, memo)
        kern = cell.kernel
        assert cell.evaluations == kern.evaluations > 0
        (read,) = memo["integrands"].values()
        kept = dict(read.table)
        for i in range(101):
            kern(i / 100)
        assert read.table == kept
        assert cell.evaluations == kern.evaluations


class TestPairedSides:
    """A weight stating symmetry takes J(f g) and W from one integral where
    integrate_symmetric substitutes (1/4 <= alpha <= 1/2)."""

    @staticmethod
    def _reads(compute, alpha=0.25, weight="vee", **flags):
        # the value compute(cell) and the abscissae it reads f and g at
        seen = {"f": set(), "g": set()}

        def recorded(fn, key):
            def wrapper(x):
                seen[key].add(x)
                return fn(x)
            return wrapper

        f, g = UNIT_FUNCS["exp"], UNIT_WEIGHTS[weight]
        f = dataclasses.replace(f, fn=recorded(f.fn, "f"))
        g = dataclasses.replace(g, fn=recorded(g.fn, "g"), **flags)
        return compute(Cell(f, g, FracSetting(0.0, 1.0, alpha), 1e-9)), seen

    @staticmethod
    def _sides(of):
        return lambda c: c.j(j_left, of) + c.j(j_right, of)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_one_integral_reads_g_only_where_it_reads_f(self, alpha):
        both, paired = self._reads(lambda c: c.both("fg"), alpha)
        assert paired["g"] and paired["g"] <= paired["f"]
        assert len(paired["f"]) == 2 * len(paired["g"]) == 2 * both.evaluations
        # the end-rule sides are exact for the smooth bump; vee's kink at m
        # sits inside one substituted panel (ROADMAP item 2)
        both, _ = self._reads(lambda c: c.both("fg"), alpha, "bump")
        sides, _ = self._reads(self._sides("fg"), alpha, "bump")
        assert abs(both.value - sides.value) <= sides.abs_error_estimate

    def test_weight_mass_is_one_integral_of_g(self):
        w, paired = self._reads(lambda c: c.both("g"))
        assert not paired["f"] and len(paired["g"]) == w.evaluations
        w, _ = self._reads(lambda c: c.both("g"), weight="bump")
        sides, _ = self._reads(self._sides("g"), weight="bump")
        assert abs(w.value - sides.value) <= sides.abs_error_estimate

    @pytest.mark.parametrize("alpha", [0.1, 0.75, 1.0, 2.5])
    def test_outside_the_band_is_the_two_sides(self, alpha):
        # W and J(f g) of a symmetric weight, and the unit weight's J(f)
        # before its scaling, are j_left + j_right bit for bit, from the
        # memo entries of j that lemma-2-1 reads
        s = FracSetting(0.0, 1.0, alpha)
        f, g = UNIT_FUNCS["exp"], UNIT_WEIGHTS["bump"]
        scale = gamma(alpha + 1.0) / (2.0 * s.width ** alpha)
        for weight, of, h, k in ((g, "g", g.fn, 1.0),
                                 (g, "fg", lambda t: f(t) * g(t), 1.0),
                                 (None, "fg", f.fn, scale)):
            memo = {}
            both = Cell(f, weight, s, DEFAULT_TOL, memo).both(of)
            assert both == (j_left(h, s) + j_right(h, s)).scaled(k), of
            entries = len(memo)
            cell = Cell(f, weight, s, DEFAULT_TOL, memo)
            assert (cell.j(j_left, of) + cell.j(j_right, of)).scaled(k) == both
            assert len(memo) == entries and cell.evaluations == 0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 2.0])
    def test_symmetry_lemma_reads_the_sides_of_w(self, alpha, monkeypatch):
        # outside the band lemma-2-1 compares the two sides that the
        # sandwich's W summed, integrating nothing; in it, W was one
        # substituted integral, so the lemma takes its two end-rule sides
        calls = []
        singular = frachh.fracops.integrate_singular

        def counted(*args):
            calls.append(args)
            return singular(*args)

        monkeypatch.setattr(frachh.fracops, "integrate_singular", counted)
        memo, g = {}, UNIT_WEIGHTS["bump"]
        s = FracSetting(0.0, 1.0, alpha)
        assert fejer_fractional(UNIT_FUNCS["exp"], g, s, memo=memo).status \
            is Status.HOLDS
        entries, before = len(memo), len(calls)
        assert check_symmetry_lemma(g, s, memo=memo).status is Status.HOLDS
        paired = 0.25 <= alpha <= 0.5
        assert len(memo) - entries == len(calls) - before == 2 * paired

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_asymmetric_weight_keeps_both_sides(self, alpha):
        # a forced asymmetric weight, and any order outside the band, give
        # j_left + j_right bit for bit
        sides, _ = self._reads(self._sides("fg"), alpha)
        asym, _ = self._reads(lambda c: c.both("fg"), alpha,
                              symmetric=False)
        assert asym == sides
        if alpha > 0.5:
            assert self._reads(lambda c: c.both("fg"), alpha)[0] == sides


class TestIdentities:
    def test_exponential_half_order(self):
        r = weighted_trapezoid_identity(UNIT_FUNCS["exp"], None, HALF_UNIT)
        assert r.status is Status.HOLDS
        assert r.lhs == pytest.approx(0.11277580663657933, rel=1e-9)
        assert abs(r.lhs - r.rhs) <= (r.error_budget
                                      * max(abs(r.lhs), abs(r.rhs), 1.0))

    def test_weighted_square_against_parabolic(self):
        r = weighted_trapezoid_identity(UNIT_FUNCS["sq"],
                                        UNIT_WEIGHTS["parabolic"], HALF_UNIT)
        assert r.status is Status.HOLDS
        assert r.lhs == pytest.approx(0.057314497376280004, rel=1e-9)

    # identity-2-3 of exp, sq and cosh with vee at alpha 0.25 on [1, 3]:
    # the rhs is within 1.1e-15 of the exact value (mpmath at 60 digits,
    # split at m).  The lhs was 3.5e-10, 3.1e-11 and 6.4e-11 off while it
    # was avg W - J(f g) with both integrals read by the alpha <= 1/2
    # substitution, which straddles the kink of vee at m (ROADMAP item 2);
    # as one one-sided integral of (avg - f) g it Holds
    KINKED = {("exp", "vee", 0.25): 1.7377503406839325,
              ("sq", "vee", 0.25): 0.418364961633710693,
              ("cosh", "vee", 0.25): 0.884789174201337086}

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.5])
    def test_derivative_corpus(self, alpha):
        s = FracSetting(1.0, 3.0, alpha)
        ws = builtin_weight_corpus(1.0, 3.0)
        for f in builtin_function_corpus(1.0, 3.0):
            if f.deriv is None:
                continue
            r = weighted_trapezoid_identity(f, None, s)
            assert r.status is Status.HOLDS, (f.label, alpha)
            for w in ws[:3]:
                r = weighted_trapezoid_identity(f, w, s)
                assert r.status is Status.HOLDS, (f.label, w.label, alpha)

    def _kinked(self, cell):
        f, g, alpha = cell
        fs = {spec.label: spec for spec in builtin_function_corpus(1.0, 3.0)}
        ws = {spec.label: spec for spec in builtin_weight_corpus(1.0, 3.0)}
        return weighted_trapezoid_identity(fs[f], ws[g], FracSetting(1.0, 3.0,
                                                                     alpha))

    @pytest.mark.parametrize("f", ["exp", "sq", "cosh"])
    def test_derivative_corpus_holds_across_a_kink(self, f):
        assert self._kinked((f, "vee", 0.25)).status is Status.HOLDS

    @pytest.mark.parametrize("cell", sorted(KINKED), ids=lambda c: c[0])
    def test_rhs_across_a_kink_is_exact(self, cell):
        # the side that reads f' on K's leaves is within its budget of the
        # exact value
        r = self._kinked(cell)
        budget = r.error_budget * max(abs(r.lhs), abs(r.rhs), 1.0)
        assert abs(r.rhs - self.KINKED[cell]) <= budget

    @pytest.mark.parametrize("interval", CALIBRATION_INTERVALS)
    @pytest.mark.parametrize("alpha", CALIBRATION_ALPHAS)
    def test_square_sides_meet_the_exact_value(self, alpha, interval):
        # for sq, identity 1.4 is (b-a)^2 alpha / ((alpha+1)(alpha+2)),
        # and 2.3 with g = one is that times W = 2 (b-a)^alpha / Gamma(alpha+1)
        a, b = interval
        s = FracSetting(a, b, alpha)
        sq = {f.label: f for f in builtin_function_corpus(a, b)}["sq"]
        one = {w.label: w for w in builtin_weight_corpus(a, b)}["one"]
        exact = s.width ** 2 * alpha / ((alpha + 1.0) * (alpha + 2.0))
        for g, value in ((None, exact), (one, exact * scaling_factor(s))):
            r = weighted_trapezoid_identity(sq, g, s)
            budget = r.error_budget * max(abs(r.lhs), abs(r.rhs), 1.0)
            assert abs(r.lhs - value) <= budget, g
            assert abs(r.rhs - value) <= budget, g

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.75, 1.5, 2.5])
    def test_unit_weight_rhs_is_the_end_integrals_closed_form(self, alpha,
                                                             interval):
        # for sq, f' = 2t: I_L = int (t-a)^alpha f' and I_U = int (b-t)^alpha
        # f' in closed form, and identity 1.4's rhs is (I_L - I_U) / (2 w^alpha)
        a, b = interval
        w = b - a
        s = FracSetting(a, b, alpha)
        sq = {f.label: f for f in builtin_function_corpus(a, b)}["sq"]
        lower = 2.0 * (w ** (alpha + 2.0) / (alpha + 2.0)
                       + a * w ** (alpha + 1.0) / (alpha + 1.0))
        upper = 2.0 * (b * w ** (alpha + 1.0) / (alpha + 1.0)
                       - w ** (alpha + 2.0) / (alpha + 2.0))
        r = weighted_trapezoid_identity(sq, None, s)
        budget = r.error_budget * max(abs(r.lhs), abs(r.rhs), 1.0)
        assert abs(r.rhs - (lower - upper) / (2.0 * w ** alpha)) <= budget

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.75, 1.5, 2.5])
    def test_constant_weight_kernel_is_all_end_terms(self, alpha, interval):
        # with g = one, K = ((t-a)^alpha - (b-t)^alpha) / alpha exactly, so
        # c = 1/alpha, K's parts less identity 1.4's times c integrate
        # against f' to 0 within K's error term, and the rhs is E / (alpha
        # Gamma(alpha)) for identity 1.4's E = int (t-a)^alpha f' - int
        # (b-t)^alpha f'
        a, b = interval
        w = b - a
        s = FracSetting(a, b, alpha)
        f = {f.label: f for f in builtin_function_corpus(a, b)}["exp"]
        one = {w.label: w for w in builtin_weight_corpus(a, b)}["one"]
        cell = Cell(f, one, s, DEFAULT_TOL)
        kern, dx = cell.kernel, cell.read(f.deriv, "deriv")
        fold = lambda x: dx(a + x) - dx(b - x)
        assert kern.c == 1.0 / alpha

        def rest_parts(x):
            k, r = kern.parts(x)
            return k - kern.c, r + kern.c * (w - x) ** alpha

        rest = frachh.numerics.integrate_odd(fold, alpha, rest_parts,
                                             kern.ends,
                                             DEFAULT_TOL * gamma(alpha))
        kerr = kern.abs_error_estimate * w * cell.dsup
        assert abs(rest.value) <= kerr + rest.abs_error_estimate
        ends = frachh.numerics.integrate_odd(
            fold, alpha, lambda x: (1.0, -(w - x) ** alpha),
            (0.0, 0.5 * w), DEFAULT_TOL * w ** alpha)
        r = weighted_trapezoid_identity(f, one, s, memo=cell.memo)
        assert r.status is Status.HOLDS
        budget = r.error_budget * max(abs(r.lhs), abs(r.rhs), 1.0)
        exact = ends.value / (alpha * gamma(alpha))
        assert abs(r.rhs - exact) <= budget

    def test_end_integrals_keep_a_tolerance_where_it_underflows(self):
        # tol (b-a)^alpha is 1e-369 here, below the least float: the end
        # integrals take ulp(0) instead, and the row Holds with both sides 0
        s = FracSetting(0.0, 1e-6, 60.0)
        f = {f.label: f for f in builtin_function_corpus(0.0, 1e-6)}["exp"]
        g = {w.label: w for w in builtin_weight_corpus(0.0, 1e-6)}["bump"]
        r = weighted_trapezoid_identity(f, g, s)
        assert r.status is Status.HOLDS
        assert r.lhs == r.rhs == 0.0

    def test_signed_symmetric_weight_accepted(self):
        # -|x - 1/2| is symmetric about 1/2 and <= 0
        neg = WeightSpec("neg-vee", lambda x: -abs(x - 0.5), 0.0, 1.0,
                         symmetric=True)
        r = weighted_trapezoid_identity(UNIT_FUNCS["exp"], neg, HALF_UNIT)
        assert r.status is Status.HOLDS

    def test_wide_interval_cost_is_not_chaotic(self):
        # identity-2-3 of sq and vee at alpha 0.75 on [0.5, 389.736...]:
        # with g scaled by 1 + k eps, G7/K15 on K read point by point bisected
        # at its rounding floor and cost 8,677 to 11,197 evaluations; on K's
        # leaves, with panels at their floor set aside, it costs one value
        a, b = 0.5, 389.73614587210216
        s = FracSetting(a, b, 0.75)
        sq = {f.label: f for f in builtin_function_corpus(a, b)}["sq"]
        vee = {w.label: w for w in builtin_weight_corpus(a, b)}["vee"]
        costs = set()
        for k in range(10):
            g = dataclasses.replace(
                vee, fn=lambda x, c=1.0 + k * sys.float_info.epsilon:
                c * vee.fn(x))
            r = weighted_trapezoid_identity(sq, g, s)
            assert r.status is Status.HOLDS and r.notes == ()
            costs.add(r.evaluations)
        (cost,) = costs
        assert cost <= 1_000

    def test_precomputed_kernel_matches(self):
        g = UNIT_WEIGHTS["bump"]
        memo = {}
        Cell(None, g, HALF_UNIT, 1e-9, memo).kernel
        with_kern = weighted_trapezoid_identity(UNIT_FUNCS["exp"], g,
                                                HALF_UNIT, memo=memo)
        without = weighted_trapezoid_identity(UNIT_FUNCS["exp"], g, HALF_UNIT)
        assert with_kern.status is Status.HOLDS
        assert with_kern.lhs == pytest.approx(without.lhs, rel=1e-11)
        assert with_kern.rhs == pytest.approx(without.rhs, rel=1e-8)
        # the kernel build was charged to the cell that made it
        assert with_kern.evaluations < without.evaluations

    def test_unreachable_tolerance_is_flagged(self, monkeypatch):
        # f' has a kink, so the K f' quadrature exhausts its panel
        # budget at this tolerance and the verdict must not be Holds;
        # a small budget runs out as surely as the real one, in less time
        monkeypatch.setattr(frachh.numerics, "MAX_PANELS", 2 ** 8)
        f = FunctionSpec(
            "c1-kink",
            lambda x: (x - 0.5) * abs(x - 0.5) ** 0.3 / 1.3,
            lambda x: abs(x - 0.5) ** 0.3,
            ConvexityKind.UNVERIFIED, 0.0, 1.0)
        r = weighted_trapezoid_identity(f, None, FracSetting(0.0, 1.0, 1.0),
                                        tol=1e-30)
        assert r.status is Status.INCONCLUSIVE
        assert "quadrature tolerance not met" in r.notes

    def test_weighted_identity_needs_a_certified_f(self):
        # K's error is scaled by sup |f'|, read at the ends because f' of
        # a certified convex f is monotone; the exact unit K reads none
        f = dataclasses.replace(UNIT_FUNCS["exp"],
                                convexity_kind=ConvexityKind.UNVERIFIED)
        with pytest.raises(DomainError, match="not certified convex"):
            weighted_trapezoid_identity(f, UNIT_WEIGHTS["bump"], HALF_UNIT)
        r = weighted_trapezoid_identity(f, None, HALF_UNIT)
        assert r.status is Status.HOLDS

    def test_derivative_required(self):
        with pytest.raises(DomainError):
            weighted_trapezoid_identity(UNIT_FUNCS["abs"], None, HALF_UNIT)
        with pytest.raises(DomainError):
            weighted_trapezoid_identity(UNIT_FUNCS["plin"],
                                        UNIT_WEIGHTS["one"], HALF_UNIT)

    def test_weight_checks(self):
        with pytest.raises(DomainError):
            weighted_trapezoid_identity(UNIT_FUNCS["sq"], lambda x: 1.0,
                                        HALF_UNIT)
        with pytest.raises(DomainError):
            weighted_trapezoid_identity(
                UNIT_FUNCS["sq"], UNIT_WEIGHTS["one"],
                FracSetting(0.0, 2.0, 0.5))


class TestBounds:
    def test_trapezoid_bound_square(self):
        r = weighted_bound("bound-1-5", UNIT_FUNCS["sq"], None, HALF_UNIT)
        assert r.status is Status.HOLDS
        assert r.observed == pytest.approx(2.0 / 15.0, rel=1e-9)
        assert r.bound == pytest.approx(0.19526214587563498, rel=1e-12)

    def test_trapezoid_bound_overflow_raises(self):
        # |exp'| is finite on [709, 709.7], but the fractional mean is not
        s = FracSetting(709.0, 709.7, 0.5)
        f = {f.label: f for f in builtin_function_corpus(s.a, s.b)}["exp"]
        with pytest.raises(OverflowError):
            weighted_bound("bound-1-5", f, None, s)

    def test_sup_bound_square_parabolic(self):
        r = weighted_bound("bound-2-4", UNIT_FUNCS["sq"],
                           UNIT_WEIGHTS["parabolic"], HALF_UNIT)
        assert r.status is Status.HOLDS
        assert r.observed == pytest.approx(0.057314497376280004, rel=1e-9)
        assert r.bound == pytest.approx(0.11016486876421574, rel=1e-12)

    def test_power_mean_bound_square(self):
        s = FracSetting(0.0, 1.0, 1.0)
        r = weighted_bound("bound-2-5", UNIT_FUNCS["sq"], UNIT_WEIGHTS["one"],
                           s, HolderPair(2.0))
        assert r.status is Status.HOLDS
        assert r.observed == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert r.bound == pytest.approx(0.7071067811865475, rel=1e-12)

    def test_holder_bound_square(self):
        s = FracSetting(0.0, 1.0, 1.0)
        r = weighted_bound("bound-2-6", UNIT_FUNCS["sq"], UNIT_WEIGHTS["one"],
                           s, HolderPair(2.0))
        assert r.status is Status.HOLDS
        assert r.bound == pytest.approx(1.0, rel=1e-12)

    def test_low_order_holder_bound_square(self):
        s = FracSetting(0.0, 1.0, 1.0)
        r = weighted_bound("bound-2-7", UNIT_FUNCS["sq"],
                           UNIT_WEIGHTS["one"], s, HolderPair(2.0))
        assert r.status is Status.HOLDS
        assert r.bound == pytest.approx(0.81649658092772603, rel=1e-12)

    def test_low_order_rejects_large_alpha(self):
        s = FracSetting(0.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            weighted_bound("bound-2-7", UNIT_FUNCS["sq"],
                           UNIT_WEIGHTS["one"], s, HolderPair(2.0),
                           force=True)

    def test_power_mean_exponent_validated(self):
        with pytest.raises(DomainError):
            weighted_bound("bound-2-5", UNIT_FUNCS["sq"], UNIT_WEIGHTS["one"],
                           HALF_UNIT, HolderPair(1.0))
        with pytest.raises(DomainError):
            weighted_bound("bound-2-5", UNIT_FUNCS["sq"], UNIT_WEIGHTS["one"],
                           HALF_UNIT)

    def test_affine_defect_vanishes_under_every_bound(self):
        s = HALF_UNIT
        one = UNIT_WEIGHTS["one"]
        reports = [
            weighted_bound("bound-1-5", AFFINE, None, s),
            weighted_bound("bound-2-4", AFFINE, one, s),
            weighted_bound("bound-2-5", AFFINE, one, s,
                           HolderPair(2.0)),
            weighted_bound("bound-2-6", AFFINE, one, s, HolderPair(2.0)),
            weighted_bound("bound-2-7", AFFINE, one, s, HolderPair(2.0)),
        ]
        for r in reports:
            assert r.status is Status.HOLDS
            assert abs(r.observed) <= r.error_budget

    def test_weight_given_iff_the_form_reads_one(self):
        with pytest.raises(DomainError, match="bound-1-5 takes no weight"):
            weighted_bound("bound-1-5", UNIT_FUNCS["sq"], UNIT_WEIGHTS["one"],
                           HALF_UNIT)
        with pytest.raises(DomainError, match="bound-2-4 needs a weight"):
            weighted_bound("bound-2-4", UNIT_FUNCS["sq"], None, HALF_UNIT)

    def test_sup_pad_covers_the_certified_sup(self):
        # on [-1e-3, 1] parabolic's certified sup |g(m)| sits an ulp below
        # the sampled one; the 1e-9 pad on each weighted bound covers that
        a, b = -1e-3, 1.0
        s = FracSetting(a, b, 0.5)
        f = {f.label: f for f in builtin_function_corpus(a, b)}["sq"]
        g = {w.label: w for w in builtin_weight_corpus(a, b)}["parabolic"]
        certified = Cell(None, g, s, DEFAULT_TOL).gsup
        sampled = sup_norm(g.fn, a, b)[0]
        assert (certified, sampled) == (0.2505002499999999, 0.25050025)
        pair = HolderPair(2.0)

        def budget(r, weight, pad):
            gap = Cell(f, weight, s, DEFAULT_TOL).weighted_defect
            return (gap.abs_error_estimate + pad
                    + ERROR_FLOOR * max(abs(r.observed), abs(r.bound), 1.0))

        for ident in ("bound-2-4", "bound-2-5", "bound-2-6", "bound-2-7"):
            r = weighted_bound(ident, f, g, s, pair)
            pad = 1e-9 * r.bound
            from_sampled = WEIGHTED_BOUNDS[ident].closed_form(
                s, sampled, abs(f.deriv(a)), abs(f.deriv(b)), pair)
            assert abs(from_sampled - r.bound) <= pad, ident
            assert r.error_budget == budget(r, g, pad), ident
        r = weighted_bound("bound-1-5", f, None, s)
        assert r.error_budget == budget(r, None, 0.0)

    def test_kinked_derivative_rejected(self):
        with pytest.raises(DomainError):
            weighted_bound("bound-1-5", UNIT_FUNCS["abs"], None, HALF_UNIT)

    def test_function_tied_to_another_interval_rejected(self):
        # xlogx is certified ANALYTIC_DERIV_CONVEX on [0.1, 0.3] only
        xlogx = {f.label: f for f in builtin_function_corpus(0.1, 0.3)}["xlogx"]
        one = {w.label: w for w in builtin_weight_corpus(0.1, 3.0)}["one"]
        with pytest.raises(DomainError, match=r"'xlogx' is tied to "
                           r"\[0\.1, 0\.3\], not \[0\.1, 3\.0\]"):
            weighted_bound("bound-2-5", xlogx, one, FracSetting(0.1, 3.0, 0.5),
                           HolderPair(2.0))

    def test_uncertified_power_needs_force(self):
        # |d/dx (x log x)|^q is not certified convex on [1, 3] (it is
        # concave there), so the gate refuses the exponent and force
        # merely records the fact
        xlogx = {f.label: f for f in builtin_function_corpus(1.0, 3.0)}["xlogx"]
        one = {w.label: w for w in builtin_weight_corpus(1.0, 3.0)}["one"]
        s = FracSetting(1.0, 3.0, 0.5)
        with pytest.raises(DomainError, match=r"\|xlogx'\|\^1\.5 is not "
                           r"certified convex on \[1\.0, 3\.0\]"):
            weighted_bound("bound-2-5", xlogx, one, s, HolderPair(1.5))
        r = weighted_bound("bound-2-5", xlogx, one, s, HolderPair(1.5),
                           force=True)
        assert any(n.startswith("hypotheses unmet") for n in r.notes)

    def test_power_mean_bound_fails_off_unit_width(self):
        # the 1/(b-a)^(1/q) factor shrinks this bound below the defect
        # on wide intervals; the corrected form (factor removed) holds
        fs = {f.label: f for f in builtin_function_corpus(1.0, 3.0)}
        ws = {w.label: w for w in builtin_weight_corpus(1.0, 3.0)}
        s = FracSetting(1.0, 3.0, 0.5)
        r = weighted_bound("bound-2-5", fs["quad-rand"], ws["one"], s,
                           HolderPair(1.5))
        assert r.status is Status.VIOLATED
        assert r.slack == pytest.approx(-0.14357732192235995, rel=1e-6)
        corrected = r.bound * s.width ** (1.0 / 1.5)
        assert r.observed <= corrected

    def test_gsup_never_samples(self, monkeypatch):
        sampled = {label: sup_norm(w.fn, 0.0, 1.0)[0]
                   for label, w in UNIT_WEIGHTS.items()}

        def tripwire(*args):
            raise AssertionError("sup_norm called")

        monkeypatch.setattr(frachh.functions, "sup_norm", tripwire)
        for label, w in UNIT_WEIGHTS.items():
            gsup = Cell(None, w, HALF_UNIT, 1e-9).gsup
            assert gsup == sampled[label], label
        unknown = WeightSpec("unknown", lambda x: 1.0, 0.0, 1.0, True, True)
        with pytest.raises(DomainError, match="'unknown' states no sup_at"):
            Cell(None, unknown, HALF_UNIT, 1e-9).gsup

    def test_power_mean_bound_holds_on_unit_width_corpus(self):
        for alpha in (0.25, 0.5, 1.0, 2.0):
            s = FracSetting(0.0, 1.0, alpha)
            for f in builtin_function_corpus(0.0, 1.0):
                for q in (1.5, 2.0, 4.0):
                    if f.deriv is None or not f.admits_deriv_power(q):
                        continue
                    r = weighted_bound("bound-2-5", f, UNIT_WEIGHTS["vee"], s,
                                       HolderPair(q))
                    assert r.status is Status.HOLDS, (f.label, alpha, q)


class TestAuxIntegrals:
    def test_half_order_unit(self):
        e, f = aux_integrals(HALF_UNIT)
        assert e.status is Status.HOLDS and f.status is Status.HOLDS
        assert (e.part, f.part) == ("e-part", "f-part")
        assert e.lhs == pytest.approx(0.16429773960448416, rel=1e-12)
        assert f.lhs == pytest.approx(0.0309644062711508, rel=1e-12)
        assert e.rhs == pytest.approx(e.lhs, abs=1e-10)
        assert f.rhs == pytest.approx(f.lhs, abs=1e-10)

    def test_order_one_unit(self):
        e, f = aux_integrals(FracSetting(0.0, 1.0, 1.0))
        assert e.status is Status.HOLDS and f.status is Status.HOLDS
        assert e.lhs == pytest.approx(5.0 / 24.0, rel=1e-14)
        assert f.lhs == pytest.approx(1.0 / 24.0, rel=1e-14)

    def test_order_two_shifted(self):
        e, f = aux_integrals(FracSetting(1.0, 3.0, 2.0))
        assert e.status is Status.HOLDS and f.status is Status.HOLDS
        assert e.lhs == pytest.approx(10.0 / 3.0, rel=1e-14)
        assert f.lhs == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_tolerance_below_rounding_is_met_at_the_floor(self, monkeypatch):
        # each part is an identity row at the tolerance it is given.  Its
        # integrand on the end rule's panel at 0 is x^alpha times a line
        # plus (w-x)^(alpha+1), so that one panel of 25 nodes reaches its
        # rounding plateau and is final: tol 1e-30 is met within a budget
        # of 2^5 panels, where G7/K15 on the bracket needed 131 and 69
        # (TestIntegrateSmooth's root moments)
        monkeypatch.setattr(frachh.numerics, "MAX_PANELS", 2 ** 5)
        nodes = []
        integrate = frachh.inequalities.integrate_odd

        def recorded(*args):
            result = integrate(*args)
            nodes.append(result.evaluations)
            return result

        monkeypatch.setattr(frachh.inequalities, "integrate_odd", recorded)
        e, f = aux_integrals(HALF_UNIT, tol=1e-30)
        assert nodes == [25, 25] and e.evaluations == f.evaluations == 0
        for r in (e, f):
            assert r.status is Status.HOLDS and r.notes == ()
            assert abs(r.lhs - r.rhs) <= 1e-14 * abs(r.lhs)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1.0, 3.0), (-2.0, 0.5)])
    def test_sum_collapses(self, alpha, interval):
        # e + f telescopes to (b-a)^(alpha+2)/(alpha+1) (1 - 2^-alpha)
        s = FracSetting(interval[0], interval[1], alpha)
        e, f = aux_integrals(s)
        assert e.status is Status.HOLDS and f.status is Status.HOLDS
        total = (s.width ** (alpha + 2.0) / (alpha + 1.0)
                 * (1.0 - 2.0 ** (-alpha)))
        assert e.lhs + f.lhs == pytest.approx(total, rel=1e-12)


class TestScalarPowerLemma:
    def test_reference_point(self):
        r = scalar_power_lemma(0.25, 1.0, 0.5)
        assert r.status is Status.HOLDS
        assert r.observed == pytest.approx(0.5, rel=1e-15)
        assert r.bound == pytest.approx(0.8660254037844386, rel=1e-15)
        assert r.evaluations == 0
        assert r.notes == ("exact evaluation",)

    @pytest.mark.parametrize("a,b,alpha", [
        (2.0, 2.0, 0.5),    # a = b
        (0.0, 3.0, 0.7),    # a = 0
        (1.0, 4.0, 1.0),    # alpha = 1
    ])
    def test_equality_configurations_hold(self, a, b, alpha):
        r = scalar_power_lemma(a, b, alpha)
        assert r.status is Status.HOLDS
        assert r.slack == 0.0

    @pytest.mark.parametrize("a,b,alpha", [
        (987.5770017528582, 993.5963039541207, 0.9999999999999983),
    ])
    def test_cancellation_near_order_one_is_not_violated(self, a, b, alpha):
        # a^alpha - b^alpha cancels terms of size b^alpha, so rounding can
        # push the slack below zero by ulps of b^alpha, not of the bound
        assert scalar_power_lemma(a, b, alpha).status is not Status.VIOLATED

    @pytest.mark.parametrize("a,b,alpha", [
        (-1.0, 1.0, 0.5),
        (2.0, 1.0, 0.5),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, 1.5),
        (0.0, math.inf, 0.5),
    ])
    def test_domain_checked(self, a, b, alpha):
        with pytest.raises(DomainError):
            scalar_power_lemma(a, b, alpha)

    @given(st.floats(0.0, 1e3), st.floats(0.0, 1e3),
           st.floats(1e-6, 1.0))
    @example(1.0, 16.5, 0.9999999999999999)
    @settings(max_examples=300, deadline=None)
    def test_never_violated(self, x, y, alpha):
        a, b = sorted((x, y))
        assert scalar_power_lemma(a, b, alpha).status is Status.HOLDS
