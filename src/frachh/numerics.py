"""Low-level quadrature and special-function kernels.

Everything downstream (fractional integral operators, inequality
verifiers) is built on three primitives:

* ``gamma``, the Euler Gamma function restricted to the positive axis,
* ``integrate_smooth``, globally adaptive Gauss-Kronrod quadrature
  (``integrate_panels`` for an integrand read a panel at a time),
* ``integrate_singular``, the same engine applied after an algebraic
  change of variable that removes a power-law endpoint singularity,

plus ``Integrand``, an integrand read through a checked and counted value
table, and ``CumulativeKernel``, a piecewise representation of the kernel

    K(t) = int_a^t (b-s)^(alpha-1) g(s) ds
         - int_t^b (s-a)^(alpha-1) g(s) ds

on a fixed 64-panel graded mesh, which weighted trapezoid identities
integrate against f'.  Both integrate the kernel by one panel rule; at a
t off the end panels both sides of K(t) share g at the nodes of [lo, t].

Every quadrature result carries an absolute error estimate, the number
of integrand evaluations spent, and a flag saying whether the requested
tolerance was met.  Estimates combine additively so callers can budget
the error of derived quantities.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "DomainError",
    "EvaluationError",
    "Integrand",
    "KernelSide",
    "QuadResult",
    "CumulativeKernel",
    "gamma",
    "integrate_panels",
    "integrate_smooth",
    "integrate_singular",
]

DEFAULT_TOL = 1e-9
MAX_PANELS = 2 ** 16
KERNEL_MESH_PANELS = 64
# entries kept per Integrand table (~1.3 MB) and per kernel store of partial
# panels (~4 MB), which is no table: it keeps a t's 15 values as one array, and
# the batch reads each abscissa once.  The hard grid's largest table holds
# ~11.8k, but an integral missing its tolerance reads ~10^6 nodes.  Past the
# cap a miss keeps nothing
TABLE_CAP = 2 ** 14

# math.gamma overflows just above this point (double precision).
_GAMMA_OVERFLOW = 171.62


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


def check_interval(a: float, b: float) -> None:
    """Refuse [a, b] unless a < b and a, b and the width b - a are finite."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got [{a!r}, {b!r}]")
    if not math.isfinite(b - a):
        raise DomainError(f"the width b - a of [{a!r}, {b!r}] overflows")


def check_order(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")


class EvaluationError(RuntimeError):
    """An integrand returned a non-finite value; keeps the abscissa."""

    def __init__(self, abscissa: float, value: float):
        super().__init__(f"integrand returned {value!r} at x = {abscissa!r}")
        self.abscissa = abscissa
        self.value = value


class KernelSide(Enum):
    """Which endpoint of the interval the power kernel blows up at.

    UPPER_SINGULAR means the kernel (b-t)^(alpha-1), singular at t = b;
    LOWER_SINGULAR means (t-a)^(alpha-1), singular at t = a.
    """

    UPPER_SINGULAR = "upper"
    LOWER_SINGULAR = "lower"


@dataclass(frozen=True)
class QuadResult:
    """Value of a quadrature together with its accounting.

    abs_error_estimate is a sum of per-panel |K15 - G7| differences, so
    it is an estimate, not a rigorous bound.  tolerance_met is False
    when the panel budget ran out before the estimate dropped below the
    requested tolerance.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    tolerance_met: bool = True

    def scaled(self, c: float) -> "QuadResult":
        return QuadResult(c * self.value, abs(c) * self.abs_error_estimate,
                          self.evaluations, self.tolerance_met)

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(self.value + other.value,
                          self.abs_error_estimate + other.abs_error_estimate,
                          self.evaluations + other.evaluations,
                          self.tolerance_met and other.tolerance_met)


def gamma(x: float) -> float:
    """Gamma(x) for x > 0.

    Delegates to the platform Lanczos implementation behind math.gamma,
    which is correctly rounded to within a few ulp, far inside the
    1e-13 relative accuracy needed here.  Raises DomainError off the
    positive axis and OverflowError once Gamma(x) exceeds double range
    (x above roughly 171.62).
    """
    if not (x > 0):  # also catches NaN
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma({x!r}) exceeds double precision range")
    return math.gamma(x)


# (G7, K15) Gauss-Kronrod pair on [-1, 1].  Positive abscissae in
# descending order as (node, Kronrod weight, Gauss weight); the Gauss
# weight is 0.0 at Kronrod-only nodes.  Values were generated from the
# defining orthogonality conditions at 60-digit precision and match the
# published QUADPACK table.
_GK_ROWS = (
    (0.9914553711208126, 0.022935322010529225, 0.0),
    (0.9491079123427585, 0.06309209262997855, 0.12948496616886969),
    (0.8648644233597691, 0.10479001032225018, 0.0),
    (0.7415311855993944, 0.14065325971552592, 0.27970539148927667),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.40584515137739717, 0.19035057806478541, 0.38183005050511894),
    (0.20778495500789848, 0.20443294007529889, 0.0),
)
_WK_CENTER = 0.20948214108472783
_WG_CENTER = 0.41795918367346939
_GK_X, _GK_K, _GK_G = zip(*_GK_ROWS)  # by column, for the unrolled rules


def _gk15(values: Sequence[float], lo: float,
          hi: float) -> tuple[float, float]:
    """One 15-point Kronrod application on [lo, hi], from the integrand's
    values at _gk15_nodes(lo, hi), summed row by row, centre first.

    Returns (integral, error_estimate) where the estimate is the
    absolute difference from the embedded 7-point Gauss rule.
    """
    fc, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7 = values
    k1, k2, k3, k4, k5, k6, k7 = _GK_K
    _, g2, _, g4, _, g6, _ = _GK_G  # 0.0 at the Kronrod-only rows
    s2, s4, s6 = a2 + b2, a4 + b4, a6 + b6
    acc_k = (_WK_CENTER * fc + k1 * (a1 + b1) + k2 * s2 + k3 * (a3 + b3)
             + k4 * s4 + k5 * (a5 + b5) + k6 * s6 + k7 * (a7 + b7))
    acc_g = _WG_CENTER * fc + g2 * s2 + g4 * s4 + g6 * s6
    r = 0.5 * (hi - lo)
    return acc_k * r, abs(acc_k - acc_g) * r


def _gk15_nodes(lo: float, hi: float) -> list[float]:
    """The nodes of _gk15 on [lo, hi] in its order: c, then c -+ r x,
    clipped into [lo, hi] (a rounded c can take them past an end)."""
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    x1, x2, x3, x4, x5, x6, x7 = _GK_X
    d1, d2, d3, d4, d5, d6, d7 = (r * x1, r * x2, r * x3, r * x4, r * x5,
                                  r * x6, r * x7)
    nodes = [c, c - d1, c + d1, c - d2, c + d2, c - d3, c + d3, c - d4,
             c + d4, c - d5, c + d5, c - d6, c + d6, c - d7, c + d7]
    return (nodes if lo <= nodes[1] and nodes[2] <= hi
            else [_clip(x, lo, hi) for x in nodes])


def _check_finite(xs: Iterable[float], ys: Iterable[float]) -> None:
    # the error names the first bad abscissa in node order
    if not all(map(math.isfinite, ys)):
        raise next(EvaluationError(x, y) for x, y in zip(xs, ys)
                   if not math.isfinite(y))


class Integrand:
    """fn read through a value table: the one place a quadrature calls,
    checks and counts an integrand.  A read of an abscissa not in `table`
    calls fn, adds 1 to `calls`, checks the value finite (else
    EvaluationError at that abscissa) and keeps it, for the first
    TABLE_CAP abscissae (fn must be a pure function of x); past the cap a
    read calls fn and keeps nothing.  As a callable, pass the bound method
    `__call__`: a read through it takes ~30% less time."""

    def __init__(self, fn: Callable[[float], float]):
        self.fn, self.calls, self.table = fn, 0, {}

    def __call__(self, x: float) -> float:
        table = self.table
        y = table.get(x)
        if y is None:
            y = self.fn(x)
            self.calls += 1
            if not math.isfinite(y):
                raise EvaluationError(x, y)
            if len(table) < TABLE_CAP:
                table[x] = y
        return y

    def values(self, xs: Sequence[float]) -> list[float]:
        """[self(x) for x in xs]."""
        return list(map(self.__call__, xs))

    def fresh(self, xs: Sequence[float]) -> list[float]:
        """fn at xs, once per distinct abscissa; the table is not used."""
        distinct = dict.fromkeys(xs)
        ys = list(map(self.fn, distinct))
        self.calls += len(ys)
        _check_finite(distinct, ys)
        return list(map(dict(zip(distinct, ys)).__getitem__, xs))


def integrate_panels(values: Callable[[list[float]], Sequence[float]],
                     a: float, b: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """integrate_smooth of an integrand read a panel at a time: values(xs)
    returns its values at the 15 nodes xs of a panel.  A non-finite value
    raises EvaluationError at the first bad abscissa in node order."""
    check_interval(a, b)
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol!r}")

    def panel(lo: float, hi: float) -> tuple[float, float]:
        xs = _gk15_nodes(lo, hi)
        ys = values(xs)
        val, err = _gk15(ys, lo, hi)
        if not math.isfinite(val):  # as is any sum with a non-finite term
            _check_finite(xs, ys)
        return val, err

    val, err = panel(a, b)
    evaluations = 15
    # heap entries: (-error, insertion order, lo, hi, value, error)
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    total_err = err
    while total_err > tol and len(heap) < MAX_PANELS:
        neg, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # panel width at rounding floor, cannot refine further
            heapq.heappush(heap, (neg, seq, lo, hi, v, e))
            seq += 1
            break
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        evaluations += 30
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        total_err += e1 + e2 - e
    value = math.fsum(entry[4] for entry in heap)
    abs_err = math.fsum(entry[5] for entry in heap)
    return QuadResult(value, abs_err, evaluations, abs_err <= tol)


def integrate_smooth(h: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_TOL) -> QuadResult:
    """Adaptive quadrature of h over [a, b] to absolute tolerance tol.

    Globally adaptive: the panel with the largest error estimate is
    bisected until the accumulated estimate falls below tol or the
    MAX_PANELS budget runs out (then tolerance_met is False).
    Refinement order is deterministic, and tightening tol only ever
    extends it, so halving tol never decreases the evaluation count.
    h is read through integrate_panels, at the nodes of a panel in order.
    """
    return integrate_panels(lambda xs: list(map(h, xs)), a, b, tol)


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _kernel_panel(h: Callable[[float], float], a: float, b: float,
                  alpha: float, side: KernelSide, lo: float, hi: float,
                  substitute: bool):
    """The panel rule: (phi, ulo, uhi, c) with int_lo^hi kernel * h equal
    to (1/c) int_ulo^uhi phi, for the kernel of side on [a, b].

    With substitute (alpha < 1 on a panel touching the singular end),
    u = (b-t)^alpha (resp. (t-a)^alpha) leaves the continuous h(t(u))
    and c = alpha; otherwise phi is the product kernel * h and c = 1.
    """
    upper = side is KernelSide.UPPER_SINGULAR
    if substitute:
        inv = 1.0 / alpha
        if upper:
            return (lambda u: h(_clip(b - u ** inv, a, b)),
                    (b - hi) ** alpha, (b - lo) ** alpha, alpha)
        return (lambda u: h(_clip(a + u ** inv, a, b)),
                (lo - a) ** alpha, (hi - a) ** alpha, alpha)
    if upper:
        return lambda t: (b - t) ** (alpha - 1.0) * h(t), lo, hi, 1.0
    return lambda t: (t - a) ** (alpha - 1.0) * h(t), lo, hi, 1.0


def integrate_singular(h: Callable[[float], float], a: float, b: float,
                       alpha: float, side: KernelSide,
                       tol: float = DEFAULT_TOL) -> QuadResult:
    """Integral of kernel(t) * h(t) over [a, b] with a power-law kernel.

    The kernel is (b-t)^(alpha-1) for KernelSide.UPPER_SINGULAR and
    (t-a)^(alpha-1) for KernelSide.LOWER_SINGULAR.  It applies the panel
    rule to all of [a, b]: for alpha < 1 the substitution u = (b-t)^alpha
    (resp. (t-a)^alpha) turns the integral into

        (1/alpha) * int_0^{(b-a)^alpha} h(b - u^(1/alpha)) du

    whose integrand is continuous, and the adaptive engine runs on
    that.  For alpha >= 1 the kernel is bounded (exactly 1.0 at
    alpha = 1) and the product is integrated directly.
    """
    check_order(alpha)
    if not isinstance(side, KernelSide):
        raise DomainError(f"side must be a KernelSide, got {side!r}")
    check_interval(a, b)
    phi, lo, hi, c = _kernel_panel(h, a, b, alpha, side, a, b, alpha < 1.0)
    return integrate_smooth(phi, lo, hi, tol * c).scaled(1.0 / c)


def _graded_mesh(a: float, b: float, panels: int) -> list[float]:
    # Geometric grading, ratio 2, toward both endpoints; the interval
    # midpoint is always a breakpoint so kinks planted there by
    # symmetric weights never sit inside a panel.  Deep meshes would
    # grade below one ulp near the endpoints, so increments smaller
    # than a few ulps are dropped rather than emitting empty panels.
    half = panels // 2
    w = 0.5 * (b - a)
    raw = [a + w * 2.0 ** (k + 1 - half) for k in range(half)]
    raw += [b - w * 2.0 ** (-j) for j in range(1, half)]
    tiny = 4.0 * math.ulp(max(abs(a), abs(b), 1.0))
    pts = [a]
    for x in raw:
        if x - pts[-1] > tiny and b - x > tiny:
            pts.append(x)
    pts.append(b)
    return pts


class CumulativeKernel:
    """Piecewise representation of the signed kernel K(t) on [a, b].

    K(t) = int_a^t (b-s)^(alpha-1) g(s) ds - int_t^b (s-a)^(alpha-1) g(s) ds.

    Built over a fixed mesh of KERNEL_MESH_PANELS panels graded toward
    both endpoints: per-panel integrals of both one-sided kernels are
    precomputed with the adaptive engine through the panel rule, and an
    evaluation at arbitrary t adds one 15-point partial-panel integral
    per side, by the same rule, to the stored prefix sums.  Each value
    K(t) is computed once per kernel and kept, so a repeated t costs
    no evaluations and the memory grows with the distinct t called.

    The build reads g through an Integrand (a callable gets its own),
    whose table it shares with every reader of g, and so does the build's
    panel rule on [lo, t] for a t in the first or last mesh panel.  Other
    partial panels stay out of the table: `partials`, which the kernels of
    one g on [a, b] may share, keeps per t an array('d') of g at the 15
    nodes of [lo, t], read by both sides, for at most TABLE_CAP values of
    t, and `values(ts)` reads the new ones of an outer panel's ts
    together, calling g once per distinct abscissa.  The store keeps a
    t's 15 values as one array, and the batch reads each abscissa once.
    `evaluations` counts this kernel's calls.

    Endpoint values satisfy K(a) = -int_a^b (s-a)^(alpha-1) g ds and
    K(b) = +int_a^b (b-s)^(alpha-1) g ds; for weights symmetric about
    the midpoint, K is antisymmetric and vanishes there.
    """

    def __init__(self, g: Integrand | Callable[[float], float],
                 a: float, b: float, alpha: float, tol: float = DEFAULT_TOL,
                 partials: Optional[dict] = None):
        check_interval(a, b)
        check_order(alpha)
        if not (tol > 0):
            raise DomainError(f"tolerance must be positive, got {tol!r}")
        self.a = a
        self.b = b
        self.alpha = alpha
        self._g = g if isinstance(g, Integrand) else Integrand(g)
        self._partial = {} if partials is None else partials
        calls = self._g.calls
        self.breakpoints = _graded_mesh(a, b, KERNEL_MESH_PANELS)
        n = len(self.breakpoints) - 1

        ptol = tol / (2 * n)
        pre_u = [0.0]
        pre_l = [0.0]
        err = 0.0
        met = True
        worst_panel = 0.0
        for i in range(n):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            ru, rl = (integrate_smooth(phi, ulo, uhi, ptol * c).scaled(1.0 / c)
                      for phi, ulo, uhi, c in self._panels(
                          self._g.__call__, lo, hi, hi))
            pre_u.append(pre_u[-1] + ru.value)
            pre_l.append(pre_l[-1] + rl.value)
            err += ru.abs_error_estimate + rl.abs_error_estimate
            met = met and ru.tolerance_met and rl.tolerance_met
            worst_panel = max(worst_panel, ru.abs_error_estimate,
                              rl.abs_error_estimate)
        self._prefix_upper = pre_u
        self._prefix_lower = pre_l
        self._total_lower = pre_l[-1]
        # Partial-panel evaluations use one Kronrod application on the
        # same (sub-)panels, so a couple of worst-panel estimates cover
        # them uniformly.
        self.abs_error_estimate = err + 2.0 * worst_panel
        self.tolerance_met = met
        self._values: dict[float, float] = {}  # t -> K(t), each computed once
        self.evaluations = self._g.calls - calls

    def _panels(self, g: Callable[[float], float], lo: float, hi: float,
                end: float) -> tuple:
        # The panel rule, upper side first, on [lo, hi] in [lo, end].
        a, b, alpha = self.a, self.b, self.alpha
        return (_kernel_panel(g, a, b, alpha, KernelSide.UPPER_SINGULAR, lo,
                              hi, alpha < 1.0 and end == b),
                _kernel_panel(g, a, b, alpha, KernelSide.LOWER_SINGULAR, lo,
                              hi, alpha < 1.0 and lo == a))

    def __call__(self, t: float) -> float:
        return self.values((t,))[0]

    def values(self, ts: Sequence[float]) -> list[float]:
        """[K(t) for t in ts], bit for bit, for the ts of one outer panel.
        A t in an end panel takes the build's panel rule, reading g through
        the kernel's Integrand; the other new partial panels call g once
        per distinct abscissa, kept for this call only.  Every read is
        checked finite before anything is stored."""
        a, b, bp, known = self.a, self.b, self.breakpoints, self._values
        calls, new, todo, flat = self._g.calls, {}, [], []
        for t in ts:
            if t in known or t in new:
                continue
            if not (a <= t <= b):
                raise DomainError(f"t = {t!r} outside [{a!r}, {b!r}]")
            i = min(bisect_right(bp, t) - 1, len(bp) - 2)
            lo, hi = bp[i], bp[i + 1]
            k = self._prefix_upper[i] + self._prefix_lower[i] - self._total_lower
            if t != lo and (lo == a or hi == b):
                for phi, u, v, c in self._panels(self._g.__call__, lo, t, hi):
                    k += _gk15(list(map(phi, _gk15_nodes(u, v))), u, v)[0] / c
            elif t != lo:  # both sides read g at the nodes of [lo, t]
                gv = self._partial.get(t)
                todo.append((t, lo, gv, len(flat)))
                if gv is None:
                    flat += _gk15_nodes(lo, t)
            new[t] = k
        if flat:
            got = array("d", self._g.fresh(flat))
        e = self.alpha - 1.0
        for t, lo, gv, at in todo:
            if gv is None:
                gv = got[at:at + 15]
                if len(self._partial) < TABLE_CAP:
                    self._partial[t] = gv
            up, low = [], []
            for x, y in zip(_gk15_nodes(lo, t), gv):
                up.append((b - x) ** e * y)
                low.append((x - a) ** e * y)
            new[t] = new[t] + _gk15(up, lo, t)[0] + _gk15(low, lo, t)[0]
        known.update(new)
        self.evaluations += self._g.calls - calls
        return [known[t] for t in ts]
