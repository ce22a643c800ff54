"""Slow, independent reference computations.

These exist so the main quadrature paths can be cross-checked by code
that shares nothing with them: a brute-force composite midpoint rule,
a closed-form Beta-function evaluation for monomials, and a central
finite difference.  check_convexity samples convexity, and
check_weight a weight's nonnegativity, symmetry and sup, so the tests
can re-check the certificates the corpus states; a sampler can refute
a stated property but never prove it, so no verifier consults one, and
check_weight returns a report, never a WeightSpec.  They trade
speed for transparency and are meant for tests and diagnostics, not
for production evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .functions import DEFAULT_CORPUS_SEED, _grid, sup_norm
from .numerics import (DomainError, KernelSide, _check_finite, check_interval,
                       check_order, gamma)

__all__ = [
    "dense_singular_integral",
    "beta_reference",
    "finite_difference_derivative",
    "ConvexityReport",
    "check_convexity",
    "WeightReport",
    "check_weight",
]

CONVEXITY_SLACK = 1e-10
WEIGHT_SLACK = 1e-12


def dense_singular_integral(h: Callable[[float], float], a: float, b: float,
                            alpha: float, side: KernelSide,
                            panels: int = 100_000) -> float:
    """Brute-force value of int_a^b kernel(t) * h(t) dt.

    A plain composite midpoint rule with exact summation.  For
    alpha < 2 it runs after the change of variable u = (b-t)^alpha
    (respectively (t-a)^alpha) that removes the kernel, where it
    converges at order min(2, 1 + 1/alpha).  For alpha >= 2 the kernel
    has a bounded derivative, so the rule samples the product itself
    and keeps order 2.  No error estimate is returned; 1e5 panels give
    roughly 1e-10 absolute accuracy on unit-scale problems.
    """
    check_order(alpha)
    check_interval(a, b)
    if panels < 100_000:
        raise DomainError(f"need at least 1e5 panels, got {panels}")
    if not isinstance(side, KernelSide):
        raise DomainError(f"side must be a KernelSide, got {side!r}")
    upper = side is KernelSide.UPPER_SINGULAR
    raw = alpha >= 2.0
    step = (b - a) ** (1.0 if raw else alpha) / panels
    inv = 1.0 / alpha

    def sample(j: int) -> float:
        # r: distance of the node from the singular endpoint
        r = (j + 0.5) * step if raw else ((j + 0.5) * step) ** inv
        t = b - r if upper else a + r
        t = a if t < a else b if t > b else t
        return r ** (alpha - 1.0) * h(t) if raw else h(t)

    total = math.fsum(sample(j) for j in range(panels)) * step
    return total if raw else total * inv


def beta_reference(alpha: float, n: int, a: float = 0.0, b: float = 1.0) -> float:
    """Closed form of the left fractional integral of (t-a)^n at b.

    (1/Gamma(alpha)) int_a^b (b-t)^(alpha-1) (t-a)^n dt
        = Gamma(n+1) / Gamma(n+1+alpha) * (b-a)^(n+alpha)

    by the Beta integral.  Restricted to small integer n where the
    formula is numerically unproblematic.
    """
    if not isinstance(n, int) or n < 0 or n > 12:
        raise DomainError(f"n must be an integer in [0, 12], got {n!r}")
    check_order(alpha)
    check_interval(a, b)
    return gamma(n + 1.0) / gamma(n + 1.0 + alpha) * (b - a) ** (n + alpha)


def finite_difference_derivative(f: Callable[[float], float], x: float,
                                 h: float = 1e-6) -> float:
    """Central difference (f(x+h) - f(x-h)) / 2h, error O(h^2)."""
    if not (h > 0):
        raise DomainError(f"step must be positive, got {h!r}")
    return (f(x + h) - f(x - h)) / (2.0 * h)


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    worst_violation: float
    samples: int
    seed: int


def check_convexity(f: Callable[[float], float], a: float, b: float,
                    samples: int = 2000,
                    seed: int = DEFAULT_CORPUS_SEED) -> ConvexityReport:
    """Randomized convexity test on [a, b].

    Draws triples (x, y, lam) and evaluates
    f(lam*x + (1-lam)*y) - lam*f(x) - (1-lam)*f(y), which is <= 0 for
    convex f.  The worst (largest) value is reported; the function is
    considered refuted when it exceeds 1e-10 times the sampled scale.
    """
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    rng = random.Random(seed)
    worst = -math.inf
    scale = 1.0
    for _ in range(samples):
        x = rng.uniform(a, b)
        y = rng.uniform(a, b)
        lam = rng.random()
        fx, fy = f(x), f(y)
        gap = f(lam * x + (1.0 - lam) * y) - lam * fx - (1.0 - lam) * fy
        worst = max(worst, gap)
        scale = max(scale, abs(fx), abs(fy))
    return ConvexityReport(worst <= CONVEXITY_SLACK * scale, worst,
                           samples, seed)


@dataclass(frozen=True)
class WeightReport:
    nonnegative: bool
    symmetric: bool
    sup: float
    sup_at: float


def check_weight(g: Callable[[float], float], a: float,
                 b: float) -> WeightReport:
    """Sampled test of a weight's hypothesis flags and sup on [a, b].

    Symmetry about (a+b)/2 and nonnegativity are checked at 1001 points
    to 1e-12 times the largest sampled |g| (at least 1); sup and sup_at
    are sup_norm's.  A False flag, or a sup above |g| at each stated
    sup_at point, refutes the stated property; a True flag proves
    nothing.  A value that is not finite raises EvaluationError.
    """
    check_interval(a, b)
    pts = _grid(a, b, 1001)
    vals = [g(x) for x in pts]
    _check_finite(pts, vals)
    slack = WEIGHT_SLACK * max(1.0, max(map(abs, vals)))
    symmetric = all(abs(v - g(a + b - x)) <= slack for x, v in zip(pts, vals))
    return WeightReport(min(vals) >= -slack, symmetric, *sup_norm(g, a, b))
