"""Reference-path tests.

The dense midpoint oracle and the Beta closed form certify each other
and the main adaptive path.  Below alpha = 2 the oracle runs on the
substituted integrand, where it converges at order min(2, 1 + 1/alpha),
so alpha = 1.5 needs more panels; from alpha = 2 on it samples the
untransformed product at order 2, so alpha = 2.5 needs no more than
the small orders.
"""

import math

import pytest

from frachh.functions import builtin_function_corpus
from frachh.numerics import DomainError, KernelSide, gamma, integrate_singular
from frachh.oracle import (beta_reference, dense_singular_integral,
                           finite_difference_derivative)

# panels per alpha, sized so the midpoint rule reaches ~5e-9 relative
_PANELS = {0.25: 200_000, 0.5: 200_000, 1.0: 200_000, 1.5: 400_000,
           2.5: 200_000}


class TestDenseSingularIntegral:
    def test_constant_half_order(self):
        value = dense_singular_integral(lambda t: 1.0, 0.0, 1.0, 0.5,
                                        KernelSide.UPPER_SINGULAR,
                                        panels=1_000_000)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_monomial_half_order(self):
        value = dense_singular_integral(lambda t: t * t, 0.0, 1.0, 0.5,
                                        KernelSide.LOWER_SINGULAR,
                                        panels=1_000_000)
        assert value == pytest.approx(0.4, abs=1e-9)

    def test_cubic_combination_matches_beta(self):
        # t^2 (1 - t) against the upper kernel, via linearity of the
        # closed form (raw integrals carry the Gamma(alpha) factor)
        value = dense_singular_integral(lambda t: t * t * (1.0 - t),
                                        0.0, 1.0, 0.5,
                                        KernelSide.UPPER_SINGULAR,
                                        panels=1_000_000)
        exact = gamma(0.5) * (beta_reference(0.5, 2) - beta_reference(0.5, 3))
        assert value == pytest.approx(exact, rel=1e-8)

    def test_panel_floor_enforced(self):
        with pytest.raises(DomainError):
            dense_singular_integral(lambda t: 1.0, 0.0, 1.0, 0.5,
                                    KernelSide.UPPER_SINGULAR, panels=50_000)


class TestBetaReference:
    def test_constant_case(self):
        for alpha in (0.25, 0.5, 1.0, 2.0):
            assert beta_reference(alpha, 0) == pytest.approx(
                1.0 / gamma(alpha + 1.0), rel=1e-14)

    def test_alpha_one_is_plain_monomial_integral(self):
        for n in range(7):
            assert beta_reference(1.0, n) == pytest.approx(
                1.0 / (n + 1.0), rel=1e-14)

    def test_quadratic_half_order(self):
        # 2/Gamma(3.5) = 16/(15 sqrt(pi)), recomputed independently
        assert beta_reference(0.5, 2) == pytest.approx(
            0.60180222245094004, rel=1e-14)

    def test_scaling_in_width(self):
        # value scales like (b-a)^(n+alpha)
        ratio = beta_reference(0.5, 2, 1.0, 3.0) / beta_reference(0.5, 2)
        assert ratio == pytest.approx(2.0 ** 2.5, rel=1e-13)

    @pytest.mark.parametrize("bad_n", [-1, 13, 2.5])
    def test_degree_checked(self, bad_n):
        with pytest.raises(DomainError):
            beta_reference(0.5, bad_n)


class TestFiniteDifference:
    def test_quadratic_exact(self):
        d = finite_difference_derivative(lambda x: x * x, 0.3, 1e-5)
        assert d == pytest.approx(0.6, abs=1e-10)

    def test_exponential(self):
        d = finite_difference_derivative(math.exp, 0.0, 1e-5)
        assert d == pytest.approx(1.0, abs=1e-10)

    def test_kink_sides(self):
        f = lambda x: abs(x - 0.5)
        assert finite_difference_derivative(f, 0.2, 1e-5) == pytest.approx(-1.0)
        assert finite_difference_derivative(f, 0.9, 1e-5) == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", sorted(_PANELS))
def test_beta_agrees_with_dense_oracle(alpha):
    for n in range(7):
        exact = beta_reference(alpha, n)
        raw = dense_singular_integral(lambda t, n=n: t ** n, 0.0, 1.0, alpha,
                                      KernelSide.UPPER_SINGULAR,
                                      panels=_PANELS[alpha])
        assert raw / gamma(alpha) == pytest.approx(exact, rel=1e-8), \
            f"alpha={alpha} n={n}"


@pytest.mark.parametrize("alpha", sorted(_PANELS))
def test_main_path_agrees_with_dense_oracle_on_corpus(alpha):
    for f in builtin_function_corpus(0.0, 1.0):
        dense = dense_singular_integral(f.fn, 0.0, 1.0, alpha,
                                        KernelSide.UPPER_SINGULAR,
                                        panels=_PANELS[alpha])
        main = integrate_singular(f.fn, 0.0, 1.0, alpha,
                                  KernelSide.UPPER_SINGULAR, 1e-9)
        tol = max(1e-8 * abs(dense), 10.0 * main.abs_error_estimate)
        assert abs(dense - main.value) <= tol, f.label
