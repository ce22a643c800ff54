"""Test corpus: convex functions, midpoint-symmetric weights.

A FunctionSpec bundles a scalar function with its exact derivative
(when one exists everywhere on the interval) and a certification of
how convex it is.  Certification is a ladder:

* ANALYTIC_DERIV_CONVEX: f is convex and |f'| is convex, hence
  |f'|^q for every q >= 1 (t -> t^q is convex and nondecreasing on
  t >= 0), both shown analytically (the one-line proofs sit next to
  each corpus entry);
* ANALYTIC_CONVEX: f is convex analytically, but no claim about |f'|;
* UNVERIFIED: no certification.  The verifiers refuse it where they
  need convexity unless forced; nothing is sampled in its place.

WeightSpec carries a weight tied to an interval, two flags
(nonnegativity and symmetry about the midpoint) and sup_at, the points
where |g| peaks, all stated from a proof: next to each builtin entry,
and by the caller for a weight from elsewhere (the even part of a raw
g, lambda x: 0.5 * (g(x) + g(a + b - x)), is symmetric by
construction).  Nothing here samples them; the tests' check_weight and
sup_norm can refute them, never certify them.  Both corpora are
deterministic for a fixed seed, randomized entries included, and admit
an entry finite at a and b (a weight also at sup_at), read nowhere else.

HolderPair(q) is the pair of conjugate exponents of Theorems 2.5-2.7:
1/p + 1/q = 1 makes q the whole pair, and p is derived from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .numerics import DomainError, check_interval

__all__ = [
    "ConvexityKind",
    "FunctionSpec",
    "WeightSpec",
    "HolderPair",
    "builtin_function_corpus",
    "builtin_weight_corpus",
    "sup_norm",
]

DEFAULT_CORPUS_SEED = 271828
SUP_NORM_GRID = 4097


class ConvexityKind(Enum):
    """How a FunctionSpec's convexity is certified; see the module doc."""

    ANALYTIC_DERIV_CONVEX = "analytic-deriv-convex"
    ANALYTIC_CONVEX = "analytic-convex"
    UNVERIFIED = "unverified"


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function on [a, b] with derivative and certification."""

    label: str
    fn: Callable[[float], float] = field(repr=False)
    deriv: Optional[Callable[[float], float]] = field(repr=False, default=None)
    convexity_kind: ConvexityKind = ConvexityKind.UNVERIFIED
    a: float = 0.0
    b: float = 1.0

    def __call__(self, x: float) -> float:
        return self.fn(x)

    @property
    def certified_convex(self) -> bool:
        return self.convexity_kind is not ConvexityKind.UNVERIFIED

    def admits_deriv_power(self, q: float) -> bool:
        """Whether |f'|^q is certified convex for this exponent."""
        return (self.convexity_kind is ConvexityKind.ANALYTIC_DERIV_CONVEX
                and self.deriv is not None and q >= 1.0)


@dataclass(frozen=True)
class WeightSpec:
    """A weight function tied to an interval, with its two hypothesis flags.

    nonnegative and symmetric (about the midpoint of [a, b]) are stated
    by whoever builds the weight, from a proof; verifiers refuse a
    weight whose flag they need is False.  sup_at lists points of
    [a, b] where |g| attains its supremum, so ||g||_inf is the largest
    |g| there, also stated from a proof.  The bounds that read
    ||g||_inf refuse a weight whose sup_at is empty.
    """

    label: str
    fn: Callable[[float], float] = field(repr=False)
    a: float = 0.0
    b: float = 1.0
    nonnegative: bool = False
    symmetric: bool = False
    sup_at: tuple[float, ...] = ()

    def __call__(self, x: float) -> float:
        return self.fn(x)


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents 1/p + 1/q = 1, given by q, finite and > 1."""

    q: float

    def __post_init__(self):
        if not 1 < self.q < math.inf:
            raise DomainError(f"need finite q > 1, got {self.q!r}")

    @property
    def p(self) -> float:
        # for q above ~1e16 the conjugate rounds to 1.0; the least
        # double above 1 is the nearest exponent that is still > 1
        return max(self.q / (self.q - 1.0), math.nextafter(1.0, 2.0))


def _grid(a: float, b: float, n: int) -> list[float]:
    step = (b - a) / (n - 1)
    pts = [a + i * step for i in range(n)]
    pts[-1] = b
    return pts


def sup_norm(g: Callable[[float], float], a: float, b: float,
             grid: int = SUP_NORM_GRID,
             refine_rounds: int = 4) -> tuple[float, float]:
    """Supremum of |g| on [a, b] by dense sampling plus local zoom, and
    the point where it is found.

    The coarse grid locates the maximizer to one cell; each refinement
    round re-samples 33 points inside the bracketing cells.  For the
    builtin corpus (smooth or piecewise linear weights) the result is
    accurate to well under 1e-9 relative.  Only the tests call it, to
    re-check a stated sup_at; no runtime path does.  It stays in this
    module only because bench/instrument.py wraps it by this path.
    """
    if grid < SUP_NORM_GRID:
        raise DomainError(f"grid must have at least {SUP_NORM_GRID} points")
    lo, hi, best_val, best_at = a, b, 0.0, a
    for n in (grid,) + (33,) * refine_rounds:
        pts = _grid(lo, hi, n)
        vals = [abs(g(x)) for x in pts]
        best = max(range(n), key=vals.__getitem__)
        if vals[best] > best_val:
            best_val, best_at = vals[best], pts[best]
        lo, hi = pts[max(best - 1, 0)], pts[min(best + 1, n - 1)]
    return best_val, best_at


def _finite_at(fn: Callable[[float], float], xs: tuple[float, ...]) -> bool:
    try:
        return all(math.isfinite(fn(x)) for x in xs)
    except (OverflowError, ValueError):  # math.cos(inf): a domain error
        return False


def builtin_function_corpus(a: float, b: float,
                            seed: int = DEFAULT_CORPUS_SEED) -> list[FunctionSpec]:
    """Deterministic corpus of convex functions on [a, b].

    Eight entries; two more (using logarithms) join on strictly
    positive intervals.  Each is read at a and b only (convex, it lies
    between its chord and a tangent) and left out unless finite there.
    Entries whose derivative has a kink carry deriv=None and so are
    skipped by derivative-based verifiers.
    """
    check_interval(a, b)
    m = 0.5 * (a + b)
    rng = random.Random(seed)
    # random positive quadratic: minimum value bounded away from zero
    c2 = rng.uniform(0.5, 2.0)
    c1 = rng.uniform(-1.0, 1.0)
    c0 = c1 * c1 / (4.0 * c2) + rng.uniform(0.1, 1.0)

    K = ConvexityKind
    entries = [
        # |2x|^q = 2^q |x|^q, convex for every q >= 1
        FunctionSpec("sq", lambda x: x * x, lambda x: 2.0 * x,
                     K.ANALYTIC_DERIV_CONVEX, a, b),
        # |exp'|^q = e^(qx), convex
        FunctionSpec("exp", math.exp, math.exp,
                     K.ANALYTIC_DERIV_CONVEX, a, b),
        # e^(-qx) is convex
        FunctionSpec("exp-neg", lambda x: math.exp(-x),
                     lambda x: -math.exp(-x), K.ANALYTIC_DERIV_CONVEX, a, b),
        # |4u^3|^q = 4^q |u|^(3q) with 3q >= 3
        FunctionSpec("quart", lambda x: (x - m) ** 4,
                     lambda x: 4.0 * (x - m) ** 3,
                     K.ANALYTIC_DERIV_CONVEX, a, b),
        # |sinh| is convex (even, increasing on [0, inf)), powers stay convex
        FunctionSpec("cosh", math.cosh, math.sinh,
                     K.ANALYTIC_DERIV_CONVEX, a, b),
        # kink at the midpoint: convex but no derivative there
        FunctionSpec("abs", lambda x: abs(x - m), None,
                     K.ANALYTIC_CONVEX, a, b),
        # piecewise linear, max of two affine pieces, kink at the midpoint
        FunctionSpec("plin", lambda x: max(m - x, 2.0 * (x - m)), None,
                     K.ANALYTIC_CONVEX, a, b),
        # |2 c2 u + c1|^q, power of |affine|, convex
        FunctionSpec("quad-rand",
                     lambda x: c2 * (x - m) ** 2 + c1 * (x - m) + c0,
                     lambda x: 2.0 * c2 * (x - m) + c1,
                     K.ANALYTIC_DERIV_CONVEX, a, b),
    ]
    if a > 0:
        # x^(-q) is convex on x > 0
        entries.append(FunctionSpec("neg-log", lambda x: -math.log(x),
                                    lambda x: -1.0 / x,
                                    K.ANALYTIC_DERIV_CONVEX, a, b))
        # x log x is convex on x > 0; |log x + 1| is convex only left of
        # 1/e (where it equals -log x - 1), so the derivative
        # certification is interval dependent.
        xlogx_kind = (K.ANALYTIC_DERIV_CONVEX if b <= 1.0 / math.e
                      else K.ANALYTIC_CONVEX)
        entries.append(FunctionSpec("xlogx", lambda x: x * math.log(x),
                                    lambda x: math.log(x) + 1.0,
                                    xlogx_kind, a, b))
    return [spec for spec in entries if _finite_at(spec.fn, (a, b))]


def builtin_weight_corpus(a: float, b: float,
                          seed: int = DEFAULT_CORPUS_SEED) -> list[WeightSpec]:
    """Deterministic corpus of nonnegative midpoint-symmetric weights.

    Six entries, both flags and sup_at certified by construction (the
    one-line proofs sit next to each entry), so nothing is sampled
    here; the tests re-check every flag with their check_weight and
    every sup_at with sup_norm.  Each is read at a, b and sup_at only, as
    its proof gives |g| <= |g(sup_at)|, and left out unless finite there;
    the ends catch bump, whose (x-m)^2 overflows once (b-a)^2 does.
    """
    check_interval(a, b)
    m = 0.5 * (a + b)
    w = b - a
    rng = random.Random(seed)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(5)]

    def raw_poly(x: float) -> float:
        xi = (x - m) / w
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * xi + c
        return acc

    def poly_rand(x: float) -> float:
        return (0.5 * (raw_poly(x) + raw_poly(a + b - x))) ** 2 + 0.1

    # the even part of the polynomial is P = c0 + c2 xi^2 + c4 xi^4, a
    # quadratic in xi^2 in [0, 1/4]: |P| peaks at xi = 0 or +-1/2 (m, a
    # and b), or at its vertex xi^2 = -c2 / (2 c4) when that is inside
    c2, c4 = coeffs[2], coeffs[4]
    vertex = -c2 / (2.0 * c4) if c4 else 0.0
    poly_peaks = (a, m, b)
    if 0.0 < vertex < 0.25:
        r = w * math.sqrt(vertex)
        poly_peaks += (max(a, m - r), min(b, m + r))

    # w * w underflows to 0 below w ~ 1e-162: bump is then nan, left out
    lam = 8.0 / (w * w) if w * w else math.nan
    entries = [
        # constant 1 > 0; |g| = 1 everywhere, so at a
        WeightSpec("one", lambda x: 1.0, a, b, True, True, (a,)),
        # both factors >= 0 on [a, b]; x -> a+b-x swaps them.  The
        # product is (w/2)^2 - (x-m)^2, largest at m
        WeightSpec("parabolic", lambda x: (x - a) * (b - x), a, b, True, True,
                   (m,)),
        # |x - m| >= 0, and |(a+b-x) - m| = |m - x|; largest where x is
        # farthest from m, at a and b
        WeightSpec("vee", lambda x: abs(x - m), a, b, True, True, (a, b)),
        # exp > 0 of a function of (x - m)^2, which is even about m;
        # the exponent is <= 0 and 0 only at m
        WeightSpec("bump", lambda x: math.exp(-lam * (x - m) ** 2), a, b,
                   True, True, (m,)),
        # cos is even, and |x - m| <= w/2 keeps its argument in
        # [-pi/2, pi/2], where it is >= 0 and largest at 0, i.e. at m
        WeightSpec("cos-arch", lambda x: math.cos(math.pi * (x - m) / w),
                   a, b, True, True, (m,)),
        # P(xi)^2 + 0.1 > 0, and x -> a+b-x is xi -> -xi, which leaves
        # the even part P alone; |g| peaks where |P| does
        WeightSpec("poly-rand", poly_rand, a, b, True, True, poly_peaks),
    ]
    return [w for w in entries if _finite_at(w.fn, (a, b, *w.sup_at))]
