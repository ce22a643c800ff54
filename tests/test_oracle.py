"""Reference-path tests.

The Beta closed form and the main adaptive path are checked against
exact values: tests/data/record_exact.py computes them with mpmath and
stores them in tests/data/exact.json, which these tests read.  The two
cross-checks keep the names they had when a dense midpoint rule was
the reference.
"""

import json
import math
from pathlib import Path

import pytest

from frachh.functions import builtin_function_corpus
from frachh.numerics import DomainError, KernelSide, gamma, integrate_singular
from reference import beta_reference, finite_difference_derivative

ALPHAS = (0.25, 0.5, 1.0, 1.5, 2.5)
DEGREES = range(7)
EXACT = json.loads((Path(__file__).resolve().parent / "data" / "exact.json")
                   .read_text(encoding="utf-8"))


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


def test_every_checked_case_has_a_stored_value():
    labels = [f.label for f in builtin_function_corpus(0.0, 1.0)]
    missing = [f"{label} at alpha {alpha}" for label in labels
               for alpha in ALPHAS
               if repr(alpha) not in EXACT["upper"].get(label, {})]
    missing += [f"Beta at alpha {alpha}" for alpha in ALPHAS
                if len(EXACT["beta"].get(repr(alpha), ())) < len(DEGREES)]
    assert not missing, f"re-run tests/data/record_exact.py: {missing}"


@pytest.mark.parametrize("alpha", ALPHAS)
def test_beta_agrees_with_dense_oracle(alpha):
    for n in DEGREES:
        exact = EXACT["beta"][repr(alpha)][n]
        assert beta_reference(alpha, n) == pytest.approx(exact, rel=1e-8), \
            f"alpha={alpha} n={n}"


@pytest.mark.parametrize("alpha", ALPHAS)
def test_main_path_agrees_with_dense_oracle_on_corpus(alpha):
    for f in builtin_function_corpus(0.0, 1.0):
        exact = EXACT["upper"][f.label][repr(alpha)]
        main = integrate_singular(f.fn, 0.0, 1.0, alpha,
                                  KernelSide.UPPER_SINGULAR, 1e-9)
        # at a non-integer order the end rule's own estimate covers the
        # error, kinks at m included
        tol = (max(1e-8 * abs(exact), 10.0 * main.abs_error_estimate)
               if float(alpha).is_integer() else main.abs_error_estimate)
        assert abs(exact - main.value) <= tol, f.label
