"""Verifiers for Hermite-Hadamard / Fejer type statements.

Each verifier recomputes both sides of one inequality or identity from
scratch and returns a Report, whose value fields are named after the
output columns and are None where the statement produces nothing.

The fractional quantities the statements share (J(f), the weight mass
W, J(f g), the defect avg W - J(f g), ||g||_inf, the kernel K and sup
|f'|) are computed only by Cell, once per cell, from integrands read
through one Integrand each; verifiers given the same memo share both.
g = None stands for the unit weight, a symmetric weight whose g is never
read, so W and J(f g) come from one rule for every weight that states
symmetry (Cell.both), and the unweighted statements are the weighted
ones at g = None: the fractional sandwich is fejer_fractional's,
identity 1.4 is weighted_trapezoid_identity's, and bound 1.5 and
Theorems 2.4-2.7 are one function, weighted_bound, over the
WEIGHTED_BOUNDS table of closed forms.  The defect, the left side of 2.3
that those bounds read, is one integral, j_left + j_right of (avg - f) g,
so its rounding scales with the defect and not with |f| W.

Every verdict comes from one rule, _verdict: Violated when the worst
case is below violated_below, Inconclusive when it is below holds_from,
Holds otherwise.  The error budget B sums the quadrature error
estimates that entered the computation, scaled exactly like the
values, and a floor of 1e-12 times the report scale.  The thresholds:

    kind             worst                    violated_below  holds_from
    sandwich, bound  smallest margin, slack   -B              B
    identity         -|lhs - rhs|             -GRAY_FACTOR B  -B
    lemma-1-6        slack                    -floor          0

The identity rows are identities 1.4 and 2.3, lemma-2-1 and the two
aux-integrals parts.  A quadrature that missed its tolerance makes an
identity report Inconclusive whatever its values.  An Inconclusive
lemma-1-6 slack, whose budget is a rounding floor, takes its sign from
decimal arithmetic.  Identity rows report their budget relative to
max(|lhs|, |rhs|, 1), the others as an absolute value.

nan and inf fail every comparison, so a report whose value, margin or
budget is not finite gets no verdict: its builder raises OverflowError.

Every report is computed in one pass at the tolerance asked.  The
hypothesis gates read the certification the spec states (convexity
kind, weight flags) and sample nothing, so a raw callable, which states
none, is not certified convex.  A gate raises DomainError unless
force=True, which instead records "hypotheses unmet" in the report notes
and proceeds; that escape hatch exists to explore what happens to an
inequality when its assumptions fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

from .fracops import FracSetting, j_left, j_right
from .functions import ConvexityKind, FunctionSpec, HolderPair, WeightSpec
from .numerics import (DEFAULT_TOL, CumulativeKernel, DomainError,
                       Integrand, QuadResult, gamma, integrate_odd,
                       integrate_symmetric)

__all__ = [
    "Status",
    "Report",
    "Cell",
    "WeightedBound",
    "WEIGHTED_BOUNDS",
    "hh_classical",
    "fejer_classical",
    "fejer_fractional",
    "weighted_trapezoid_identity",
    "weighted_bound",
    "aux_integrals",
    "scalar_power_lemma",
    "check_symmetry_lemma",
]

ERROR_FLOOR = 1e-12
# identity residuals between 1 and 10 budgets are treated as ambiguous
# rather than violations, since the budget is an estimate
GRAY_FACTOR = 10.0

_FEJER_NOTE = ("weighted mean term carries no 1/(b-a) factor; all three "
               "terms scale with the weight integral, matching the alpha=1 "
               "limit of the fractional form")


class Status(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Report:
    """The verdict on one statement and the values behind it.

    The value fields are named after the output columns; those the
    statement does not produce are None.  `part` labels the two rows of
    aux_integrals.
    """

    status: Status
    error_budget: float
    evaluations: int
    notes: tuple[str, ...] = ()
    lhs: Optional[float] = None
    mid: Optional[float] = None
    rhs: Optional[float] = None
    observed: Optional[float] = None
    bound: Optional[float] = None
    margin_lower: Optional[float] = None
    margin_upper: Optional[float] = None
    slack: Optional[float] = None
    part: Optional[str] = None


def _finite(*values: float) -> None:
    # nan or inf compares false both ways, so no verdict would be sound
    if not all(map(math.isfinite, values)):
        raise OverflowError("a report value is not finite")


def _verdict(worst: float, violated_below: float,
             holds_from: float) -> Status:
    if worst < violated_below:
        return Status.VIOLATED
    if worst < holds_from:
        return Status.INCONCLUSIVE
    return Status.HOLDS


def _sandwich(lhs: float, mid: float, rhs: float, err: float,
              evaluations: int, notes: tuple[str, ...]) -> Report:
    lower = mid - lhs
    upper = rhs - mid
    budget = err + ERROR_FLOOR * max(abs(lhs), abs(mid), abs(rhs), 1.0)
    _finite(lhs, mid, rhs, lower, upper, budget)
    return Report(_verdict(min(lower, upper), -budget, budget), budget,
                  evaluations, notes, lhs=lhs, mid=mid, rhs=rhs,
                  margin_lower=lower, margin_upper=upper)


def _bound(observed: float, bound: float, err: float, evaluations: int,
           notes: tuple[str, ...]) -> Report:
    slack = bound - observed
    budget = err + ERROR_FLOOR * max(abs(observed), abs(bound), 1.0)
    _finite(observed, bound, slack, budget)
    return Report(_verdict(slack, -budget, budget), budget, evaluations,
                  notes, observed=observed, bound=bound, slack=slack)


def _identity(lhs: QuadResult, rhs: QuadResult, evaluations: int,
              notes: tuple[str, ...]) -> Report:
    diff = lhs + rhs.scaled(-1.0)
    residual = abs(diff.value)
    scale = max(abs(lhs.value), abs(rhs.value), 1.0)
    budget = diff.abs_error_estimate + ERROR_FLOOR * scale
    _finite(lhs.value, rhs.value, residual, budget)
    status = _verdict(-residual, -GRAY_FACTOR * budget, -budget)
    if not diff.tolerance_met:
        status = Status.INCONCLUSIVE
        notes = notes + ("quadrature tolerance not met",)
    return Report(status, budget / scale, evaluations, notes,
                  lhs=lhs.value, rhs=rhs.value)


# Cell.both pairs the sides by a substitution from this order to 1/2:
# bench's reference holds its kinked W and J(f g) of symmetric weights and
# the unit weight's J(f), e.g. the means of abs and plin at 1/4 and 1/2; the
# band goes when ROADMAP item 1's bench half stores exact references
_SUBSTITUTED_FROM = 0.25


class Cell:
    """The derived quantities of one (f, g, alpha) cell at one tolerance.

    The only place they are computed: each on first read, kept in
    `memo` under the inputs it depends on, so cells sharing a memo share
    it (W, ||g||_inf and K across functions, J(f g) and the defect
    across exponents).

    Every read of f, f' and g, a quadrature's (K's build and the
    identities' f' integrals included) or a point's (f at a, m and b for
    avg and fm, |f'| at a and b for dends and dsup, |g| at sup_at for
    ||g||_inf), goes through the memo's Integrand of each (`read`): J(g),
    J(f g) and K share one table of g.  `evaluations` counts the calls
    made through the memo's Integrands since this cell was made, so a
    row is charged every call of f, f' and g it made.

    With g = None, g is the unit weight scaled to W = 1: W is exactly 1,
    J(f g) and the defect are Gamma(alpha+1) / (2 (b-a)^alpha) times
    j_left + j_right of f and of avg - f, and ||g||_inf reads 1; there is
    no K, since identity 1.4's kernel (t-a)^alpha - (b-t)^alpha is known.
    Products by 1.0 and sums with 0.0 are exact.
    """

    def __init__(self, f: Optional[FunctionSpec], g: Optional[WeightSpec],
                 s: FracSetting, tol: float, memo: Optional[dict] = None):
        self.f, self.g, self.s, self.tol = f, g, s, tol
        self.memo = {} if memo is None else memo
        self._reads = self.memo.setdefault("integrands", {})
        self._spent = 0
        self._spent = self.evaluations  # the memo's calls before this cell

    @property
    def evaluations(self) -> int:
        return sum(read.calls for read in self._reads.values()) - self._spent

    def _once(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def read(self, fn: Callable[[float], float], role: str = "fn") -> Integrand:
        """The memo's Integrand of fn in role: "fn" for f and g, "deriv"
        for f'.  f and f' can be one callable (exp), and a row's count
        must not depend on whether they are."""
        if (role, fn) not in self._reads:
            self._reads[role, fn] = Integrand(fn)
        return self._reads[role, fn]

    def j(self, side: Callable, of: str) -> QuadResult:
        """side(h) for side j_left or j_right and h = g, f g or, for
        "defect", (avg - f) g (`of`), g = 1 for the unit weight."""
        f = self.f.fn if of != "g" else None
        g = self.g.fn if self.g is not None else None

        def integral() -> QuadResult:
            fx = None if f is None else self.read(f).__call__
            gx = None if g is None else self.read(g).__call__
            if of == "defect":
                avg, read_f = self.avg, fx
                fx = lambda x: avg - read_f(x)
            h = fx if gx is None else gx if fx is None else (
                lambda x: fx(x) * gx(x))
            return side(h, self.s, self.tol)

        return self._once((side, of, f, g, self.s, self.tol), integral)

    def both(self, of: str) -> QuadResult:
        """j_left(h) + j_right(h) for h = g, f g or, for "defect", the
        defect's integrand (avg - f) g (`of`); W = both("g").

        The unit weight's W is exactly 1.  For 1/4 <= alpha <= 1/2
        (_SUBSTITUTED_FROM) a weight stating symmetry and the unit weight
        take g and f g as one integrate_symmetric each, kept under a key of
        its own, which reads f at b - d and a + d, d = u^(1/alpha), and g at
        b - d only.  Every other case, the defect included, sums the
        one-sided integrals of j, which lemma-2-1 reads too."""
        g, s, tol = self.g, self.s, self.tol
        f = None if of == "g" else self.f.fn
        gfn = None if g is None else g.fn
        if g is None and of == "g":
            return QuadResult(1.0, 0.0, 0)
        if (of != "defect" and (g is None or g.symmetric)
                and _SUBSTITUTED_FROM <= s.alpha <= 0.5):
            g_alpha = gamma(s.alpha)
            both = self._once(("both", f, gfn, s, tol), lambda: (
                integrate_symmetric(
                    None if f is None else self.read(f).__call__,
                    None if gfn is None else self.read(gfn).__call__,
                    s.a, s.b, s.alpha, tol * g_alpha * s.alpha
                ).scaled(2.0 * (1.0 / g_alpha) * (1.0 / s.alpha))))
        else:
            both = self.j(j_left, of) + self.j(j_right, of)
        return both if g is not None else both.scaled(
            gamma(s.alpha + 1.0) / (2.0 * s.width ** s.alpha))

    @property
    def gsup(self) -> float:
        """||g||_inf: the largest |g| at the spec's sup_at points."""
        g = self.g
        if g is None:
            return 1.0
        if not g.sup_at:
            raise DomainError(f"weight {g.label!r} states no sup_at")
        return max(abs(self.read(g.fn)(x)) for x in g.sup_at)

    @property
    def kernel(self) -> CumulativeKernel:
        g, s = self.g.fn, self.s
        return self._once(("K", g, s, self.tol), lambda: CumulativeKernel(
            self.read(g), s.a, s.b, s.alpha, self.tol))

    @property
    def dends(self) -> tuple[float, float]:
        dx = self.read(self.f.deriv, "deriv")
        return abs(dx(self.s.a)), abs(dx(self.s.b))

    @property
    def dsup(self) -> float:
        """sup |f'|: K's error factor.  f' of a certified convex f is
        monotone, so the sup is max(dends)."""
        f, a, b = self.f, self.s.a, self.s.b
        if not f.certified_convex:
            raise DomainError(f"{f.label!r} is not certified convex on "
                              f"[{a!r}, {b!r}], so sup |{f.label}'| is unknown")
        return max(self.dends)

    @property
    def avg(self) -> float:
        fx = self.read(self.f.fn)
        # halved before the sum, which two values near the float max overflow
        return 0.5 * fx(self.s.a) + 0.5 * fx(self.s.b)

    @property
    def fm(self) -> float:
        return self.read(self.f.fn)(self.s.midpoint)

    @property
    def weighted_defect(self) -> QuadResult:
        """avg W - J(f g), the left side of 2.3, or of 1.4 with no weight:
        both("defect"), one integral that rounds with the defect, not two
        of size |f| W."""
        return self.both("defect")


def _as_function(f: FunctionSpec | Callable[[float], float], a: float,
                 b: float) -> FunctionSpec:
    if isinstance(f, FunctionSpec):
        # its certification was issued for [f.a, f.b] only
        if (f.a, f.b) != (a, b):
            raise DomainError(f"function {f.label!r} is tied to "
                              f"[{f.a!r}, {f.b!r}], not [{a!r}, {b!r}]")
        return f
    if callable(f):
        return FunctionSpec(getattr(f, "__name__", "anonymous"), f, None,
                            ConvexityKind.UNVERIFIED, a, b)
    raise DomainError(f"not a function: {f!r}")


def _gate(ok: bool, message: str, force: bool,
          notes: tuple[str, ...]) -> tuple[str, ...]:
    if ok:
        return notes
    if force:
        return notes + (f"hypotheses unmet: {message}",)
    raise DomainError(message)


def _weight_gate(g: WeightSpec, a: float, b: float, need_nonneg: bool,
                 force: bool, notes: tuple[str, ...]) -> tuple[str, ...]:
    if not isinstance(g, WeightSpec):
        raise DomainError("weights must be WeightSpec instances so their "
                          "symmetry flag is validated")
    if (g.a, g.b) != (a, b):
        raise DomainError(f"weight {g.label!r} is tied to "
                          f"[{g.a!r}, {g.b!r}], not [{a!r}, {b!r}]")
    notes = _gate(g.symmetric, f"weight {g.label!r} is not midpoint-symmetric",
                  force, notes)
    if need_nonneg:
        notes = _gate(g.nonnegative, f"weight {g.label!r} is not nonnegative",
                      force, notes)
    return notes


def _require_deriv(f: FunctionSpec) -> Callable[[float], float]:
    if f.deriv is None:
        raise DomainError(f"{f.label!r} carries no derivative")
    return f.deriv


def hh_classical(f, a: float, b: float, tol: float = DEFAULT_TOL,
                 force: bool = False,
                 memo: Optional[dict] = None) -> Report:
    """f((a+b)/2)  <=  mean of f over [a,b]  <=  (f(a)+f(b))/2.

    The alpha = 1, g = None case of fejer_fractional, whose mean
    Gamma(2) / (2(b-a)) (J f + J f) is then the plain mean of f bit for bit.
    """
    return fejer_fractional(f, None, FracSetting(a, b, 1.0), tol, force, memo)


def fejer_classical(f, g: WeightSpec, tol: float = DEFAULT_TOL,
                    force: bool = False,
                    memo: Optional[dict] = None) -> Report:
    """Weighted version of the classical sandwich.

    f(m) int g  <=  int f g  <=  (f(a)+f(b))/2 int g

    for g nonnegative and symmetric about m = (a+b)/2.  The middle
    term is deliberately not divided by (b-a): with that extra factor
    the three terms would not scale alike.  This is the alpha = 1 case
    of fejer_fractional with every term halved.
    """
    if not isinstance(g, WeightSpec):
        raise DomainError("weights must be WeightSpec instances so their "
                          "symmetry flag is validated")
    return _fejer(f, g, FracSetting(g.a, g.b, 1.0), 0.5, tol, force, memo,
                  (_FEJER_NOTE,))


def fejer_fractional(f, g: Optional[WeightSpec], s: FracSetting,
                     tol: float = DEFAULT_TOL, force: bool = False,
                     memo: Optional[dict] = None) -> Report:
    """Weighted fractional sandwich of order alpha.

    With W = j_left(g) + j_right(g):

        f(m) W  <=  j_left(f g) + j_right(f g)  <=  (f(a)+f(b))/2 W

    for g nonnegative and symmetric about the midpoint.  At alpha = 1
    this degenerates to twice the classical weighted sandwich.  g = None
    is the unit weight, g = 1 scaled to W = 1, which gives the plain
    fractional sandwich f(m) <= Gamma(alpha+1) / (2 (b-a)^alpha)
    (j_left f + j_right f) <= (f(a)+f(b))/2.
    """
    return _fejer(f, g, s, 1.0, tol, force, memo)


def _fejer(f, g: Optional[WeightSpec], s: FracSetting, scale: float,
           tol: float, force: bool, memo: Optional[dict],
           extra_notes: tuple[str, ...] = ()) -> Report:
    """The weighted sandwich (unit weight for g = None), W, J(f g) x scale."""
    f = _as_function(f, s.a, s.b)
    notes = () if g is None else _weight_gate(g, s.a, s.b, True, force, ())
    notes = _gate(f.certified_convex, f"{f.label!r} is not certified convex "
                  f"on [{s.a!r}, {s.b!r}]", force, notes) + extra_notes

    c = Cell(f, g, s, tol, memo)
    w, mid = c.both("g").scaled(scale), c.both("fg").scaled(scale)
    fm, avg = c.fm, c.avg
    err = (abs(fm) + abs(avg)) * w.abs_error_estimate + mid.abs_error_estimate
    return _sandwich(fm * w.value, mid.value, avg * w.value, err,
                     c.evaluations, notes)


def weighted_trapezoid_identity(f, g: Optional[WeightSpec], s: FracSetting,
                                tol: float = DEFAULT_TOL,
                                memo: Optional[dict] = None) -> Report:
    """Weighted trapezoid defect as an integral against f'.

    With W = j_left(g) + j_right(g) and the cumulative kernel K,

    (f(a)+f(b))/2 * W - (j_left(fg) + j_right(fg))
        = (1/Gamma(alpha)) int_a^b K(t) f'(t) dt.

    Needs g symmetric about the midpoint (sign is unconstrained), and
    then f certified convex: K's error scales by sup |f'| (Cell.dsup).
    Both sides of m fold onto [a, m], where integrate_odd reads f' at
    a + x and b - x on the leaves of K (its parts).  g = None (identity
    1.4) has rhs = int_a^b [(t-a)^alpha - (b-t)^alpha] f' / (2 (b-a)^alpha),
    on the one panel [a, m] before bisection.
    """
    f = _as_function(f, s.a, s.b)
    d = _require_deriv(f)
    notes = () if g is None else _weight_gate(g, s.a, s.b, False, False, ())
    a, b, alpha, w = s.a, s.b, s.alpha, s.width

    c = Cell(f, g, s, tol, memo)
    dx = c.read(d, "deriv")
    fold = lambda x: dx(a + x) - dx(b - x)
    if g is None:
        rhs = integrate_odd(
            fold, alpha, lambda x: (1.0, -(w - x) ** alpha), (0.0, 0.5 * w),
            max(tol * w ** alpha, math.ulp(0.0))).scaled(0.5 / w ** alpha)
    else:
        kern = c.kernel
        rhs = (integrate_odd(fold, alpha, kern.parts, kern.ends,
                             tol * gamma(alpha))
               + QuadResult(0.0, kern.abs_error_estimate * w * c.dsup,
                            0, kern.tolerance_met)  # K's error
               ).scaled(1.0 / gamma(alpha))
    return _identity(c.weighted_defect, rhs, c.evaluations, notes)


def _power_mean(da: float, db: float, q: float) -> float:
    # direct while m^q is a normal float, scaled by m past that
    m = max(da, db)
    if m == 0.0 or -1022.0 < q * math.log2(m) < 1023.0:
        return ((da ** q + db ** q) / 2.0) ** (1.0 / q)
    return m * (((da / m) ** q + (db / m) ** q) / 2.0) ** (1.0 / q)


@dataclass(frozen=True)
class WeightedBound:
    """closed_form(s, gsup, |f'(a)|, |f'(b)|, pair) of one defect bound;
    `reads` names what it takes of the weight g and the Holder q and p."""

    reads: tuple[str, ...]
    max_alpha: float
    closed_form: Callable[[FracSetting, float, float, float,
                           Optional[HolderPair]], float]


# Bound 1.5 and Theorems 2.4-2.7, by the hypothesis on f each needs.
# Each closed form keeps the operation order of the printed formula, but
# for 1 - 2^(-alpha) (1 - 2^(-alpha p) in 2.6), taken as -expm1(-alpha ln 2),
# since the subtraction cancels at small orders (7.5e-9 relative at 1e-8)
WEIGHTED_BOUNDS: dict[str, WeightedBound] = {
    # convex |f'|, unit weight: 2.4 at the constant weight with W = 1
    "bound-1-5": WeightedBound((), math.inf, lambda s, gsup, da, db, pair: (
        s.width / (2.0 * (s.alpha + 1.0))
        * -math.expm1(-s.alpha * math.log(2.0))
        * (da + db))),
    # convex |f'|
    "bound-2-4": WeightedBound(("g",), math.inf, lambda s, gsup, da, db, pair: (
        s.width ** (s.alpha + 1.0) * gsup
        / ((s.alpha + 1.0) * gamma(s.alpha + 1.0))
        * -math.expm1(-s.alpha * math.log(2.0))
        * (da + db))),
    # convex |f'|^q, q > 1.  The 1/(b-a)^(1/q) factor makes it scale
    # like (b-a)^(alpha - 1/q) under dilation while the defect scales
    # like (b-a)^alpha, so on long intervals it can drop below the defect.
    "bound-2-5": WeightedBound(("g", "q"), math.inf, lambda s, gsup, da, db, pair: (
        2.0 * s.width ** (s.alpha + 1.0) * gsup
        / (s.width ** (1.0 / pair.q) * (s.alpha + 1.0)
           * gamma(s.alpha + 1.0))
        * -math.expm1(-s.alpha * math.log(2.0))
        * _power_mean(da, db, pair.q))),
    # convex |f'|^q, via the Holder inequality, any alpha > 0
    "bound-2-6": WeightedBound(("g", "p", "q"), math.inf, lambda s, gsup, da, db, pair: (
        2.0 ** (1.0 / pair.p) * gsup * s.width ** (s.alpha + 1.0)
        / ((s.alpha * pair.p + 1.0) ** (1.0 / pair.p) * gamma(s.alpha + 1.0))
        * (-math.expm1(-s.alpha * pair.p * math.log(2.0))) ** (1.0 / pair.p)
        * _power_mean(da, db, pair.q))),
    # sharper, but only for 0 < alpha <= 1: the proof runs through the
    # scalar power lemma, which fails for alpha > 1
    "bound-2-7": WeightedBound(("g", "p", "q"), 1.0, lambda s, gsup, da, db, pair: (
        gsup * s.width ** (s.alpha + 1.0)
        / ((s.alpha * pair.p + 1.0) ** (1.0 / pair.p) * gamma(s.alpha + 1.0))
        * _power_mean(da, db, pair.q))),
}


def weighted_bound(ident: str, f, g: Optional[WeightSpec], s: FracSetting,
                   pair: Optional[HolderPair] = None,
                   tol: float = DEFAULT_TOL, force: bool = False,
                   memo: Optional[dict] = None) -> Report:
    """|left side of 2.3| <= the closed form WEIGHTED_BOUNDS[ident], of 1.4
    with g = None where it reads no weight.  Forms reading exponents need
    the Holder pair and convex |f'|^q; the others need convex |f'|."""
    form = WEIGHTED_BOUNDS[ident]
    if not s.alpha <= form.max_alpha:
        raise DomainError(f"{ident} is restricted to 0 < alpha <= "
                          f"{form.max_alpha:g}, got {s.alpha!r}")
    if ("g" in form.reads) != (g is not None):
        raise DomainError(f"{ident} needs a weight" if g is None
                          else f"{ident} takes no weight")
    if "q" in form.reads and pair is None:
        raise DomainError(f"{ident} needs a Holder pair (p, q)")
    f = _as_function(f, s.a, s.b)
    notes = () if g is None else _weight_gate(g, s.a, s.b, False, force, ())
    _require_deriv(f)
    q = pair.q if "q" in form.reads else 1.0
    notes = _gate(f.admits_deriv_power(q), f"|{f.label}'|^{q:g} is not "
                  f"certified convex on [{s.a!r}, {s.b!r}]", force, notes)
    c = Cell(f, g, s, tol, memo)
    bound = form.closed_form(s, c.gsup, *c.dends, pair)
    # each weighted form is linear in ||g||_inf: pad by its error, the
    # ulps a proven sup_at value can sit below the float max of |g|
    pad = 0.0 if g is None else 1e-9 * bound
    gap = c.weighted_defect
    return _bound(abs(gap.value), bound, gap.abs_error_estimate + pad,
                  c.evaluations, notes)


def aux_integrals(s: FracSetting,
                  tol: float = DEFAULT_TOL) -> tuple[Report, Report]:
    """Closed forms of two half-interval moments, checked numerically.

    e = int_a^m [(b-t)^alpha - (t-a)^alpha] (b-t) dt
      = (b-a)^(alpha+2)/(alpha+1) * ((alpha+1)/(alpha+2) - 2^-(alpha+1))
    f = int_a^m [(b-t)^alpha - (t-a)^alpha] (t-a) dt
      = (b-a)^(alpha+2)/(alpha+1) * (1/(alpha+2) - 2^-(alpha+1))

    Their sum, (b-a)^(alpha+2)/(alpha+1) * (1 - 2^-alpha), is the
    quantity the defect bounds are built from.  One identity Report per
    part, with the closed form as lhs and the quadrature at tol as rhs,
    which reads no f, f' or g: each reports 0 evaluations.
    """
    alpha, w = s.alpha, s.width
    base = w ** (alpha + 2.0) / (alpha + 1.0)
    # identity 1.4's kernel x^alpha - (w-x)^alpha is minus the bracket, so
    # its moments are -(w-x) and -x, in the offset x = t - a
    kernel = lambda x: (1.0, -(w - x) ** alpha)
    moments = (("e-part", (alpha + 1.0) / (alpha + 2.0), lambda x: x - w),
               ("f-part", 1.0 / (alpha + 2.0), lambda x: -x))
    reports = []
    for part, c, moment in moments:
        closed = base * (c - 2.0 ** (-(alpha + 1.0)))
        num = integrate_odd(moment, alpha, kernel, (0.0, 0.5 * w), tol)
        reports.append(replace(_identity(QuadResult(closed, 0.0, 0), num,
                                         0, ()), part=part))
    return tuple(reports)


def scalar_power_lemma(a: float, b: float, alpha: float) -> Report:
    """|a^alpha - b^alpha| <= (b-a)^alpha for 0 <= a <= b, alpha in (0, 1].

    Pure arithmetic, no quadrature, so the comparison is essentially
    exact and a nonnegative slack counts as Holds outright.  The
    equality configurations (a = b, a = 0, or alpha = 1) evaluate to
    the same float on both sides and the non-strict inequality still
    holds.  A slack within a few rounding ulps of zero from below gets
    its sign from decimal arithmetic (_exact_slack_sign); it is
    reported Inconclusive only if no precision tried can tell.
    """
    if not (0.0 <= a <= b and math.isfinite(b)):
        raise DomainError(f"need 0 <= a <= b, got a={a!r}, b={b!r}")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"need 0 < alpha <= 1, got {alpha!r}")
    pa, pb = a ** alpha, b ** alpha
    observed = abs(pa - pb)
    bound = (b - a) ** alpha
    slack = bound - observed
    # pa - pb cancels terms of size max(pa, pb), so its rounding error
    # scales with them, not with the bound
    floor = 1e-15 * max(pa, pb, bound, 1.0)
    notes = ("exact evaluation",)
    status = _verdict(slack, -floor, 0.0)
    if status is Status.INCONCLUSIVE:
        sign = _exact_slack_sign(a, b, alpha)
        if sign:
            status = Status.HOLDS if sign > 0 else Status.VIOLATED
            notes += ("slack sign decided in decimal arithmetic",)
    return Report(status, floor, 0, notes, observed=observed, bound=bound,
                  slack=slack)


def _exact_slack_sign(a: float, b: float, alpha: float) -> int:
    """Sign of (b-a)^alpha - |a^alpha - b^alpha| for these exact doubles.

    Evaluated in decimal at rising precision.  A sign is returned once
    |slack| exceeds ten units in the last digit of the largest term,
    more than the five roundings involved can add up to; 0 means no
    precision tried could tell.
    """
    # imported here: few calls get this far, and importing decimal adds
    # ~2.5 ms to every start of the command line
    import decimal

    for digits in (60, 240, 960):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            da, db, dp = (decimal.Decimal(x) for x in (a, b, alpha))
            pa, pb, bound = da ** dp, db ** dp, (db - da) ** dp
            slack = bound - abs(pa - pb)
            if abs(slack) > max(pa, pb, bound).scaleb(2 - digits):
                return 1 if slack > 0 else -1
    return 0


def check_symmetry_lemma(g, s: FracSetting, tol: float = DEFAULT_TOL,
                         memo: Optional[dict] = None) -> Report:
    """Lemma 2.1: j_left(g) = j_right(g) for g symmetric about the midpoint.

    t -> a+b-t maps one one-sided kernel onto the other.  Both sides are
    computed independently and compared by residual like any identity.
    """
    _weight_gate(g, s.a, s.b, False, False, ())
    c = Cell(None, g, s, tol, memo)
    return _identity(c.j(j_left, "g"), c.j(j_right, "g"), c.evaluations, ())
