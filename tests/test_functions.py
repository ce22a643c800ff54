"""Corpus and certification tests.

Exact derivatives carried by the corpus are cross-checked against
central differences, and every analytic convexity claim and weight
flag is re-checked by a sampling test (which can refute, never prove).
"""

import math

import pytest

import frachh.functions
from hypothesis import given, settings
from hypothesis import strategies as st

from frachh.functions import (DEFAULT_CORPUS_SEED, ConvexityKind, HolderPair,
                              WeightSpec, builtin_function_corpus,
                              builtin_weight_corpus, sup_norm)
from frachh.numerics import DomainError, EvaluationError
from reference import (check_convexity, check_weight,
                       finite_difference_derivative)

UNIT = (0.0, 1.0)
SHIFTED = (1.0, 3.0)


class TestFunctionCorpus:
    def test_unit_interval_membership(self):
        fs = builtin_function_corpus(*UNIT)
        labels = [f.label for f in fs]
        assert labels == ["sq", "exp", "exp-neg", "quart", "cosh", "abs",
                          "plin", "quad-rand"]

    def test_positive_interval_gains_log_entries(self):
        labels = {f.label for f in builtin_function_corpus(*SHIFTED)}
        assert {"neg-log", "xlogx"} <= labels
        assert len(labels) == 10

    def test_kinked_entries_carry_no_derivative(self):
        fs = {f.label: f for f in builtin_function_corpus(*UNIT)}
        for label in ("abs", "plin"):
            assert fs[label].deriv is None
            assert fs[label].convexity_kind is ConvexityKind.ANALYTIC_CONVEX
            assert fs[label].certified_convex
            assert not fs[label].admits_deriv_power(2.0)

    def test_xlogx_certification_depends_on_interval(self):
        # |log x + 1| is convex only where log x + 1 keeps one sign
        wide = {f.label: f for f in builtin_function_corpus(*SHIFTED)}
        assert wide["xlogx"].convexity_kind is ConvexityKind.ANALYTIC_CONVEX
        narrow = {f.label: f
                  for f in builtin_function_corpus(0.05, 1.0 / math.e)}
        assert (narrow["xlogx"].convexity_kind
                is ConvexityKind.ANALYTIC_DERIV_CONVEX)

    @pytest.mark.parametrize("interval", [UNIT, SHIFTED])
    def test_exact_derivatives_match_finite_differences(self, interval):
        a, b = interval
        for f in builtin_function_corpus(a, b):
            if f.deriv is None:
                continue
            for i in range(1, 100):
                x = a + (b - a) * i / 100.0
                d = f.deriv(x)
                fd = finite_difference_derivative(f.fn, x, 1e-5)
                assert abs(d - fd) <= 1e-8 * (1.0 + abs(d)), (f.label, x)

    @pytest.mark.parametrize("interval", [UNIT, SHIFTED])
    def test_sampling_cannot_refute_corpus_convexity(self, interval):
        for f in builtin_function_corpus(*interval):
            report = check_convexity(f.fn, f.a, f.b)
            assert report.convex, f.label

    def test_convex_derivative_admits_every_power_from_one(self):
        # t -> t^q is convex and nondecreasing on t >= 0 for q >= 1
        fs = {f.label: f for f in builtin_function_corpus(*UNIT)}
        for q in (1.0, 1.5, 4.0, 1e17):
            assert fs["sq"].admits_deriv_power(q), q
        assert not fs["sq"].admits_deriv_power(0.5)

    def test_deriv_power_claims_survive_sampling(self):
        for f in builtin_function_corpus(*SHIFTED):
            for q in (1.0, 1.5, 2.0, 4.0):
                if f.admits_deriv_power(q):
                    power = lambda x, d=f.deriv: abs(d(x)) ** q
                    assert check_convexity(power, f.a, f.b).convex, \
                        (f.label, q)

    def test_seed_determinism(self):
        xs = [0.1, 0.37, 0.62, 0.93]
        one = builtin_function_corpus(*UNIT, seed=7)[-1]
        two = builtin_function_corpus(*UNIT, seed=7)[-1]
        other = builtin_function_corpus(*UNIT, seed=8)[-1]
        assert [one(x) for x in xs] == [two(x) for x in xs]
        assert [one(x) for x in xs] != [other(x) for x in xs]

    def test_overflowing_entries_are_left_out(self):
        # exp and cosh overflow on [700, 800]; the other entries stay
        labels = [f.label for f in builtin_function_corpus(700.0, 800.0)]
        assert labels == ["sq", "exp-neg", "quart", "abs", "plin",
                          "quad-rand", "neg-log", "xlogx"]

    def test_interval_validated(self):
        with pytest.raises(DomainError):
            builtin_function_corpus(1.0, 1.0)
        with pytest.raises(DomainError):
            builtin_function_corpus(0.0, math.inf)


class TestWeightCorpus:
    @pytest.mark.parametrize("interval", [
        UNIT, SHIFTED, (-1.0, 2.0), (0.0, 1e-6), (1e8, 1e8 + 1.0),
        (-1e15, 1e15)])
    def test_all_weights_validated(self, interval):
        # the flags are certified by construction; sampling must not
        # refute them
        ws = builtin_weight_corpus(*interval)
        assert [w.label for w in ws] == ["one", "parabolic", "vee", "bump",
                                         "cos-arch", "poly-rand"]
        for w in ws:
            assert w.nonnegative and w.symmetric, w.label
            assert (w.a, w.b) == interval
            report = check_weight(w.fn, *interval)
            assert report.nonnegative and report.symmetric, w.label

    @pytest.mark.parametrize("interval,left_out", [
        ((1e200, 1e201), ["parabolic", "bump"]),  # overflow
        ((0.0, 1e-300), ["bump"]),  # (b-a)^2 underflows to 0
    ])
    def test_nonfinite_entries_are_left_out(self, interval, left_out):
        labels = [w.label for w in builtin_weight_corpus(*interval)]
        assert labels == [label for label in ("one", "parabolic", "vee",
                                              "bump", "cos-arch", "poly-rand")
                          if label not in left_out]

    def test_builder_samples_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("builtin weights are not sampled")
        monkeypatch.setattr(frachh.functions, "sup_norm", refuse)
        assert len(builtin_weight_corpus(*UNIT)) == 6

    def test_weight_values(self):
        ws = {w.label: w for w in builtin_weight_corpus(*UNIT)}
        assert ws["one"](0.3) == 1.0
        assert ws["parabolic"](0.5) == 0.25
        assert ws["vee"](0.5) == 0.0
        assert ws["bump"](0.5) == 1.0
        assert ws["cos-arch"](0.0) == pytest.approx(0.0, abs=1e-15)

    def test_seed_determinism(self):
        xs = [0.2, 0.8]
        one = builtin_weight_corpus(*UNIT, seed=3)[-1]
        two = builtin_weight_corpus(*UNIT, seed=3)[-1]
        other = builtin_weight_corpus(*UNIT, seed=4)[-1]
        assert [one(x) for x in xs] == [two(x) for x in xs]
        assert [one(x) for x in xs] != [other(x) for x in xs]


def _finite_on_grid(fn, a, b):
    # the 33-point rule the corpora once admitted entries by, kept as the
    # reference that reading the certificates' points must agree with
    step = (b - a) / 32
    try:
        return all(math.isfinite(fn(x))
                   for x in [a + i * step for i in range(32)] + [b])
    except (OverflowError, ValueError):
        return False


class TestAdmission:
    # each entry is read only where its certificate decides finiteness:
    # f at a and b (convex), g at a, b and sup_at
    EDGES = [(0.0, 1.0), (700.0, 709.7), (1e154, 1.4e154), (0.0, 1e-162),
             (5e-324, 1.0), (1e300, 1.0000001e300), (1e308, 1.5e308),
             (-1e308, 5e307), (0.0, 1e308), (-8e307, 8e307), (2e154, 4e154),
             (-1e154, 1e154), (0.0, 1e-300), (1e-320, 2e-320),
             (-5e-324, 5e-324), (709.0, 710.0), (1e200, 1e201),
             (1.0, math.nextafter(1.0, 2.0)), (1e17, 1e17 + 64)]

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("build", [builtin_function_corpus,
                                       builtin_weight_corpus])
    def test_labels_match_the_grid_rule(self, build, seed, monkeypatch):
        for a, b in self.EDGES:
            admitted = [e.label for e in build(a, b, seed)]
            with monkeypatch.context() as m:
                m.setattr(frachh.functions, "_finite_at", lambda fn, xs: True)
                every = build(a, b, seed)
            assert admitted == [e.label for e in every
                                if _finite_on_grid(e.fn, a, b)], (a, b)

    def test_bump_is_read_at_the_ends(self, monkeypatch):
        # (b-a)^2 overflows: lambda = 0, so bump is 1 at its peak m but
        # not finite near a and b, where (x-m)^2 overflows
        a, b = 1e300, 1.0000001e300
        monkeypatch.setattr(frachh.functions, "_finite_at",
                            lambda fn, xs: True)
        bump = {w.label: w for w in builtin_weight_corpus(a, b)}["bump"]
        assert [bump(x) for x in bump.sup_at] == [1.0]
        assert not _finite_on_grid(bump.fn, a, b)
        monkeypatch.undo()
        assert "bump" not in [w.label for w in builtin_weight_corpus(a, b)]


class TestCheckWeight:
    def test_flags_reflect_reality(self):
        report = check_weight(lambda x: x, 0.0, 1.0)
        assert report.nonnegative and not report.symmetric
        report = check_weight(lambda x: x - 0.5, 0.0, 1.0)
        assert not report.nonnegative and not report.symmetric
        report = check_weight(lambda x: -abs(x - 0.5), 0.0, 1.0)
        assert not report.nonnegative and report.symmetric
        assert report.sup == 0.5

    def test_a_true_flag_proves_nothing(self):
        # every sample sits on a zero of sin(1000 pi x), so this weight
        # passes; between samples it is not symmetric about 1/2
        g = lambda x: 1.0 + 2.0 * math.sin(1000.0 * math.pi * x) ** 2 * (
            x - 0.5)
        assert check_weight(g, 0.0, 1.0).symmetric
        assert (g(0.2005), g(0.7995)) == pytest.approx((0.401, 1.599))

    def test_sup_refutes_a_wrong_sup_at(self):
        # vee peaks at the ends; a stated peak at the midpoint is wrong
        vee = WeightSpec("vee", lambda x: abs(x - 0.5), 0.0, 1.0, True, True,
                         (0.5,))
        report = check_weight(vee.fn, vee.a, vee.b)
        assert report.sup == 0.5 and report.sup_at in (0.0, 1.0)
        assert report.sup > max(abs(vee(x)) for x in vee.sup_at)

    def test_nonfinite_weight_rejected(self):
        bad = lambda x: math.nan if abs(x - 0.5) < 1e-9 else 1.0
        with pytest.raises(EvaluationError, match="at x = 0.5"):
            check_weight(bad, 0.0, 1.0)

    def test_interval_validated(self):
        with pytest.raises(DomainError):
            check_weight(lambda x: 1.0, 1.0, 0.0)


class TestConvexityCheck:
    def test_refutes_concave(self):
        assert not check_convexity(lambda x: -x * x, 0.0, 1.0).convex
        assert not check_convexity(math.sin, 0.0, math.pi).convex

    def test_accepts_affine(self):
        report = check_convexity(lambda x: 3.0 * x - 1.0, 0.0, 1.0)
        assert report.convex
        assert report.samples == 2000

    def test_deterministic_for_seed(self):
        r1 = check_convexity(math.exp, 0.0, 1.0, seed=11)
        r2 = check_convexity(math.exp, 0.0, 1.0, seed=11)
        assert r1 == r2

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            check_convexity(math.exp, 0.0, 1.0, samples=0)


class TestSupNorm:
    def test_known_maxima(self):
        assert sup_norm(lambda x: 1.0, 0.0, 1.0) == (1.0, 0.0)
        assert sup_norm(lambda x: (x - 0.0) * (1.0 - x), 0.0, 1.0)[0] == \
            pytest.approx(0.25, rel=1e-12)
        assert sup_norm(lambda x: abs(x - 0.5), 0.0, 1.0)[0] == \
            pytest.approx(0.5, rel=1e-12)
        top, at = sup_norm(math.sin, 0.0, math.pi)
        assert top == pytest.approx(1.0, rel=1e-12)
        assert top == math.sin(at)

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c):
        g = lambda x: math.cos(math.pi * (x - 0.5))
        assert sup_norm(lambda x: c * g(x), 0.0, 1.0)[0] == \
            pytest.approx(abs(c) * sup_norm(g, 0.0, 1.0)[0], rel=1e-12,
                          abs=1e-15)

    def test_dominates_point_values(self):
        for w in builtin_weight_corpus(*SHIFTED):
            s = sup_norm(w.fn, w.a, w.b)[0]
            for x in (1.0, 1.7, 2.0, 2.9, 3.0):
                assert s >= abs(w(x)) - 1e-12

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            sup_norm(lambda x: 1.0, 0.0, 1.0, grid=100)

    @pytest.mark.parametrize("interval,exact", [
        (UNIT, True), (SHIFTED, True), ((0.0, 1e-6), True),
        ((-1e15, 1e15), False)])
    def test_sup_at_certifies_the_sampled_sup(self, interval, exact):
        # poly-rand's sup_at depends on the seed, so several seeds run
        for seed in (DEFAULT_CORPUS_SEED, 42, 7, 99, 1000, 2026):
            ws = builtin_weight_corpus(*interval, seed=seed)
            assert [w.label for w in ws if w.sup_at] == [
                "one", "parabolic", "vee", "bump", "cos-arch", "poly-rand"]
            for w in ws:
                assert all(w.a <= x <= w.b for x in w.sup_at), w.label
                certified = max(abs(w(x)) for x in w.sup_at)
                sampled = sup_norm(w.fn, *interval)[0]
                assert certified >= sampled, (seed, w.label)
                if exact:
                    assert certified == sampled, (seed, w.label)


class TestHolderPair:
    def test_conjugate_accepted(self):
        pair = HolderPair(2.0)
        assert (pair.p, pair.q) == (2.0, 2.0)
        pair = HolderPair(4.0 / 3.0)
        assert 1.0 / pair.p + 1.0 / pair.q == pytest.approx(1.0, abs=1e-15)

    def test_from_q(self):
        pair = HolderPair(1.5)
        assert pair.p == pytest.approx(3.0)
        assert pair.q == 1.5

    @pytest.mark.parametrize("q", [1.0, 0.5, -1.0, math.inf, math.nan])
    def test_invalid_rejected(self, q):
        with pytest.raises(DomainError):
            HolderPair(q)

    def test_from_q_for_huge_q(self):
        # q / (q - 1) rounds to 1.0 here; p is the least double above 1
        pair = HolderPair(1e17)
        assert pair.p == math.nextafter(1.0, 2.0)
        assert pair.q == 1e17

    def test_from_q_validates(self):
        with pytest.raises(DomainError, match=r"need finite q > 1, got 1\.0"):
            HolderPair(1.0)

    @given(st.floats(1.01, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_from_q_always_conjugate(self, q):
        pair = HolderPair(q)
        assert abs(1.0 / pair.p + 1.0 / pair.q - 1.0) <= 1e-12
