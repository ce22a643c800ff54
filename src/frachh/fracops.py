"""Riemann-Liouville fractional integrals on a fixed interval.

Only the two operator values the inequalities consume are exposed:
the left integral evaluated at the right endpoint and the right
integral evaluated at the left endpoint,

    j_left(h)  = (1/Gamma(alpha)) int_a^b (b-t)^(alpha-1) h(t) dt,
    j_right(h) = (1/Gamma(alpha)) int_a^b (t-a)^(alpha-1) h(t) dt.

At alpha = 1 both reduce to the plain integral of h over [a, b], so
the classical statements are their alpha = 1 case.  Their sum is
taken by inequalities.Cell.both.
alpha = 0 is rejected outright rather than special-cased to the
identity operator; the scaling 1/Gamma(alpha) is continuous there but
nothing downstream needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .numerics import (DEFAULT_TOL, KernelSide, QuadResult, check_interval,
                       check_order, gamma, integrate_singular)

__all__ = ["FracSetting", "j_left", "j_right"]


@dataclass(frozen=True)
class FracSetting:
    """Interval and order for one family of fractional integrals.

    Only a < b is required: the operators and every identity here are
    defined for any finite interval.  The stricter reading a >= 0 of
    the paper is a command-line option (--strict-paper), checked once
    before any work.
    """

    a: float
    b: float
    alpha: float

    def __post_init__(self):
        check_interval(self.a, self.b)
        check_order(self.alpha)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def width(self) -> float:
        return self.b - self.a


def _fractional(h: Callable[[float], float], s: FracSetting, tol: float,
                side: KernelSide) -> QuadResult:
    g = gamma(s.alpha)
    raw = integrate_singular(h, s.a, s.b, s.alpha, side, tol * g)
    return raw.scaled(1.0 / g)


def j_left(h: Callable[[float], float], s: FracSetting,
           tol: float = DEFAULT_TOL) -> QuadResult:
    """Left fractional integral of order alpha, evaluated at b."""
    return _fractional(h, s, tol, KernelSide.UPPER_SINGULAR)


def j_right(h: Callable[[float], float], s: FracSetting,
            tol: float = DEFAULT_TOL) -> QuadResult:
    """Right fractional integral of order alpha, evaluated at a."""
    return _fractional(h, s, tol, KernelSide.LOWER_SINGULAR)

