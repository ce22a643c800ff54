"""Low-level quadrature and special-function kernels.

Everything downstream (fractional integral operators, inequality
verifiers) is built on five primitives:

* ``gamma``, the Euler Gamma function restricted to the positive axis,
* ``integrate_smooth``, globally adaptive Gauss-Kronrod quadrature, the
  rule of integrate_symmetric alone,
* ``integrate_singular``, int_a^b of a power-law kernel, singular at
  a or b, times h,
* ``integrate_symmetric``, alpha/2 times both power-law kernels against
  f g for a g symmetric about the midpoint, or the unit weight, as one
  integral in u = (b-t)^alpha that reads g on one side only,
* ``integrate_odd``, int_0^X (x^alpha S + R) h dx: the identities'
  int_a^b k f' for a kernel k odd about the midpoint, folded onto [a, m],
  and the two half-interval moments of aux-integrals,

plus ``Integrand``, an integrand read through a checked and counted value
table, and ``CumulativeKernel``, a piecewise representation of the kernel

    K(t) = int_a^t (b-s)^(alpha-1) g(s) ds
         - int_t^b (s-a)^(alpha-1) g(s) ds

of a weight g symmetric about the midpoint m: g(a)/alpha times identity
1.4's kernel in closed form, less one adaptive integral of g - g(a) from
m, over [a, m] only, in offsets from a.  K integrates the interpolants of
the build's final panels ("leaves"), so it reads g only where the build
did.  The identities take S and R from K's leaves (K.parts) and run
integrate_odd on K's leaf ends.

integrate_singular, integrate_odd and K's build integrate (d^(beta-1)
S(d) + R(d)) h, d the distance from the singular end, on one panel rule,
_power_rule: Chebyshev panels, the one at that end by a modified
Clenshaw-Curtis rule exact for the kernel (the end rule), every other by
Clenshaw-Curtis on the product; a panel reads its 13 even nodes first and
the other 12 only when the degree-12 series is short of its rounding
plateau (Oliver, Comput. J. 15, 1972).  A panel's reading is a list of
parts (order, values, tail), order-1 parts first, and one loop,
_cheb_panel, sums every part of every such panel by the end rule of its
order, its error from the tail of the part's Chebyshev coefficients
(_tail).

Every quadrature result carries an absolute error estimate, the number
of integrand evaluations spent, and a flag saying whether the requested
tolerance was met.  Estimates combine additively so callers can budget
the error of derived quantities.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, Sequence

__all__ = [
    "DomainError",
    "EvaluationError",
    "Integrand",
    "KernelSide",
    "QuadResult",
    "CumulativeKernel",
    "gamma",
    "integrate_smooth",
    "integrate_odd",
    "integrate_singular",
    "integrate_symmetric",
]

DEFAULT_TOL = 1e-9
MAX_PANELS = 2 ** 16
# entries kept per Integrand table (~1.3 MB).  The corpus grids' largest table
# holds 1,324 (the default grid at seed 42; 70 on the hard grid, 263 on the
# tiny), but an integral missing its tolerance reads ~10^6 nodes.  Past the
# cap a miss keeps nothing
TABLE_CAP = 2 ** 14

# math.gamma overflows just above this point (double precision).
_GAMMA_OVERFLOW = 171.62
_EPS = sys.float_info.epsilon


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

    abs_error_estimate is a sum of per-panel estimates (|K15 - G7|, or a
    Chebyshev panel's coefficient tail) plus the final panels' rounding
    floors (_adaptive), so it is an estimate, not a rigorous bound.
    tolerance_met is False when the panel budget ran out before the
    estimates dropped below the requested tolerance.
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


def _gk15_rule(h: Callable[[float], float]
               ) -> Callable[[float, float], tuple[float, float, float, int]]:
    """The G7/K15 panel rule of _adaptive for h, read at the nodes of a
    panel in order, with QUADPACK's rounding floor 50 eps K15(|h|) (dqk15).
    A non-finite value raises EvaluationError at the first bad abscissa."""
    def panel(lo: float, hi: float) -> tuple[float, float, float, int]:
        xs = _gk15_nodes(lo, hi)
        ys = list(map(h, xs))
        val, err = _gk15(ys, lo, hi)
        if not math.isfinite(val):  # as is any sum with a non-finite term
            _check_finite(xs, ys)
        size = _gk15(list(map(abs, ys)), lo, hi)[0]
        return val, err, 50.0 * _EPS * size, 15

    return panel


def _adaptive(panel: Callable[[float, float], tuple[float, float, float, int]],
              mesh: Sequence[float],
              tol: float) -> tuple[QuadResult, list[tuple]]:
    """The adaptive loop: panel(lo, hi) gives the value, error estimate,
    rounding floor and number of nodes read of a panel rule on [lo, hi].
    One heap starts from the panels between consecutive points of the
    ascending mesh and bisects the worst open panel until the open panels'
    summed error estimate is within tol: a running sum, which rounds as
    large estimates leave it, so it is re-summed exactly at every power of
    two panels and before the loop stops on it.  A panel whose error is
    within its floor is final: bisecting it would chase rounding, so it leaves
    the heap and the stopping test.  abs_error_estimate adds every
    panel's error and floor.  Returns the result and the panels, which
    tile [mesh[0], mesh[-1]], as heap entries (-error, insertion order,
    lo, hi, value, error, floor)."""
    check_interval(mesh[0], mesh[-1])
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    heap, final, evaluations, total_err = [], [], 0, 0.0

    def add(seq: int, lo: float, hi: float) -> float:
        # the panel's error if it stays open, else 0.0
        nonlocal evaluations
        val, err, floor, n = panel(lo, hi)
        evaluations += n
        entry = (-err, seq, lo, hi, val, err, floor)
        if err <= floor:
            final.append(entry)
            return 0.0
        heapq.heappush(heap, entry)
        return err

    for seq, (lo, hi) in enumerate(zip(mesh, mesh[1:])):
        total_err += add(seq, lo, hi)
    seq = len(mesh) - 1
    while heap and len(heap) + len(final) < MAX_PANELS:
        if total_err <= tol:  # stop on the exact sum, not a drifted one
            total_err = math.fsum(entry[5] for entry in heap)
            if total_err <= tol:
                break
        entry = heapq.heappop(heap)
        lo, hi, e = entry[2], entry[3], entry[5]
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # panel width at rounding floor, cannot refine further
            heapq.heappush(heap, entry)
            break
        total_err += add(seq, lo, mid) + add(seq + 1, mid, hi) - e
        seq += 2
        n = len(heap) + len(final)
        if n & (n - 1) == 0:  # shed the sum's rounding residue
            total_err = math.fsum(entry[5] for entry in heap)
    panels = heap + final
    value, err, floor = (math.fsum(entry[i] for entry in panels)
                         for i in (4, 5, 6))
    met = math.fsum(entry[5] for entry in heap) <= tol
    return QuadResult(value, err + floor, evaluations, met), panels


def integrate_smooth(h: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_TOL) -> QuadResult:
    """Adaptive quadrature of h over [a, b] to absolute tolerance tol.

    Globally adaptive: the panel with the largest error estimate is
    bisected until the accumulated estimate falls below tol or the
    MAX_PANELS budget runs out (then tolerance_met is False).
    Refinement order is deterministic, and tightening tol only ever
    extends it, so halving tol never decreases the evaluation count.
    h is read at the nodes of a panel in order.
    """
    return _adaptive(_gk15_rule(h), (a, b), tol)[0]


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def integrate_singular(h: Callable[[float], float], a: float, b: float,
                       alpha: float, side: KernelSide,
                       tol: float = DEFAULT_TOL) -> QuadResult:
    """Integral of kernel(t) * h(t) over [a, b] with a power-law kernel.

    The kernel is (b-t)^(alpha-1) for KernelSide.UPPER_SINGULAR and
    (t-a)^(alpha-1) for KernelSide.LOWER_SINGULAR.  At every alpha, an
    integer one included, the panels are _power_rule's at beta = alpha
    with (S, R) = (1, 0), from the singular end b (resp. a): the kernel
    is read at the nodes of the panel's distances b - hi to b - lo (resp.
    lo - a to hi - a), as below alpha = 1 it blows up there, and a node's
    b - t is off by up to ulp(b).  The nodes are exactly odd, so both
    sides' panels on one mesh read the same abscissae, and the even nodes
    of one side's panel are those of the other's.
    """
    check_order(alpha)
    if not isinstance(side, KernelSide):
        raise DomainError(f"side must be a KernelSide, got {side!r}")
    check_interval(a, b)
    upper = side is KernelSide.UPPER_SINGULAR
    panel, _ = _power_rule(h, alpha, None, b if upper else a, upper)
    return _adaptive(panel, (a, b), tol)[0]


def integrate_symmetric(f: Callable[[float], float] | None,
                        g: Callable[[float], float] | None, a: float,
                        b: float, alpha: float,
                        tol: float = DEFAULT_TOL) -> QuadResult:
    """int_0^{(b-a)^alpha} (f(b-d) g(b-d) + f(a+d) g(b-d))/2 du to tol, for
    d = u^(1/alpha); f = None reads 1, and so does g = None, the unit
    weight, whose g is never read.

    For a g symmetric about the midpoint, g(a+d) = g(b-d), so
    u = (b-t)^alpha and (t-a)^alpha meet at one u and this is alpha/2
    int_a^b ((b-t)^(alpha-1) + (t-a)^(alpha-1)) f g dt.  g is read at
    b - d only, f at both ends, each clipped into [a, b], and each product
    is halved before the sum, which two terms near the float max would
    overflow.
    """
    check_interval(a, b)
    check_order(alpha)
    inv = 1.0 / alpha

    def phi(u: float) -> float:
        d = u ** inv
        x = _clip(b - d, a, b)
        y = 1.0 if g is None else g(x)
        if f is None:
            return y
        return 0.5 * f(x) * y + 0.5 * f(_clip(a + d, a, b)) * y

    return integrate_smooth(phi, 0.0, (b - a) ** alpha, tol)


# Chebyshev-Lobatto points cos(j pi / 24), j = 0..24, of _end_nodes, the even
# ones the nested rule's, exactly odd in j - 12 so both sides read alike
_END_N = 24
_END_NODES = tuple(math.cos(math.pi * j / _END_N) for j in range(_END_N // 2))
_END_NODES += (0.0, *(-s for s in reversed(_END_NODES)))
# _tail's estimate.  The interpolant misses f by at most 2 sum_(k>n) |c_k|
# (aliasing), for which the last _TAIL_LEN coefficients, both parities,
# stand in; the factor 3 is that 2 and half again.  Calibrated: at 1 or 2
# fejer-fractional rows of vee at order 1e-8 end Inconclusive, a kinked
# panel's estimate stopping just below tol; 3 to 10 pass every calibration
_TAIL_LEN = 4
_TAIL_FACTOR = 3.0


@functools.cache
def _chebyshev_rows(n: int) -> list[list[float]]:
    """Row k maps values y_j at cos(j pi / n), j = 0..n, to the coefficient
    of T_k in their degree-n interpolant: (2/n) sum'' y_j cos(j k pi / n),
    the terms at j = 0 and n halved, and the rows k = 0 and n halved."""
    def half(i):
        return 0.5 if i in (0, n) else 1.0

    return [[2.0 / n * half(j) * half(k)
             * math.cos(math.pi * (j * k % (2 * n)) / n)
             for j in range(n + 1)] for k in range(n + 1)]


@functools.lru_cache(maxsize=32)
def _end_rule(alpha: float) -> tuple[list[float], list[float]]:
    """The weights of the rule exact for u^(alpha-1) on [0, 1], u = (1+s)/2,
    in subtracted form: for the degree-24 interpolant p of values y at
    _END_NODES, int_0^1 u^(alpha-1) p(u) du = p(0)/alpha + sum_j v_j y_j,
    p(0) being y at the last node (s = -1); then the 13 weights of the
    nested degree-12 rule at the even nodes, which p(0)/alpha completes
    alike.  v = N C for C = _chebyshev_rows and the moments N_k =
    int_0^1 u^(alpha-1) (T_k(2u-1) - T_k(-1)) du, which are QUADPACK's
    modified moments M_k (dqmomo, Piessens et al. 1983) less (-1)^k/alpha,
    by their forward recurrence with the 1/alpha terms cancelled by hand:
    N_0 = 0, N_1 = 2/(alpha+1) and, for k >= 2,

        (k-1) (k+alpha) N_k = -1 - k (k-alpha-1) N_(k-1) + (-1)^k (1-2k).

    Its homogeneous solution alternates in sign and decays like
    k^(-2 alpha), so a rounding error keeps at most its size, and the N_k
    stay of order 1 (|N_k| < 9) at every alpha > 0, where the M_k grow like
    1/alpha and cancel: the rule is exact to 4e-15 from alpha = 1e-8 to
    12.3 (tests/test_numerics.py).  Built on first use for each alpha
    (~0.4 ms) and cached for the 32 most recent."""
    n = [0.0, 2.0 / (alpha + 1.0)]
    for k in range(2, _END_N + 1):
        n.append((-1.0 - k * (k - alpha - 1.0) * n[-1]
                  + (-1) ** k * (1 - 2 * k)) / ((k - 1) * (k + alpha)))
    return tuple([math.fsum(map(operator.mul, n, col)) for col in zip(*rows)]
                 for rows in map(_chebyshev_rows, (_END_N, _END_N // 2)))


def _end_nodes(lo: float, hi: float, upper: bool) -> list[float]:
    """The abscissae of _END_NODES on [lo, hi], from the far end to the end
    at hi (upper) or lo, clipped into [lo, hi]."""
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    far, end, d = (lo, hi, -r) if upper else (hi, lo, r)
    return [far, *(_clip(c + d * s, lo, hi) for s in _END_NODES[1:-1]), end]


def _tail(ys: Sequence[float]) -> float:
    """The error of the degree-n interpolant of values ys at cos(j pi / n),
    j = 0..n, n = 24 or 12, in units of its Chebyshev coefficients c_k:
    _TAIL_FACTOR times the sum of the last _TAIL_LEN |c_k| (Gonnet, ACM
    TOMS 37, 2010), or 0.0 at its rounding plateau, Aurentz & Trefethen's
    test (ACM TOMS 43, 2017) for a fixed n.  With e the largest |c_k| of
    the tail over max_j |y_j|, and e' the largest of the tail and the block
    before it, the series is at its plateau when e <= eps, or when e <=
    eps^(2/3) and e >= 3 (1 - log e / log eps) e': the closer to eps, the
    less flat it must be.  Rounding, of the values or of the abscissae
    they were read at, levels off; an unresolved series still decays."""
    rows = _chebyshev_rows(len(ys) - 1)
    tail = [abs(sum(map(operator.mul, row, ys))) for row in rows[-_TAIL_LEN:]]
    top = max(map(abs, ys))
    e = max(tail) / top if top else 0.0
    if e <= _EPS:
        return 0.0
    if e <= _EPS ** (2 / 3):  # e' from the block before the tail
        e1 = max(e, *(abs(sum(map(operator.mul, row, ys))) / top
                      for row in rows[-2 * _TAIL_LEN:-_TAIL_LEN]))
        if e >= 3.0 * (1.0 - math.log(e) / math.log(_EPS)) * e1:
            return 0.0
    return _TAIL_FACTOR * sum(tail)


def _cheb_panel(lo: float, hi: float, parts: Sequence[tuple]
                ) -> tuple[float, float, float, int]:
    """The value, error, rounding floor and number of nodes of a panel
    [lo, hi] on _end_nodes, or on its 13 even nodes, the one place every
    Chebyshev panel is summed: the sum over its parts (order, ys, tail),
    order-1 parts first, of the rule v of _end_rule(order) on ys, exact for
    u^(order-1) in u, the distance from the last node over hi - lo, in
    subtracted form, p(0)/order + sum_j v_j y_j with p(0) = ys[-1], scaled
    by (hi - lo)^order.  A part's error is tail (_tail, 0.0 at its plateau)
    times sum_j |v_j|, which bounds the rule on a p - p(0) of size 1 at the
    nodes (2/order above order ~ 1/2, 13.8 at order 1e-8), and its size is
    |p(0)|/order + sum_j |v_j y_j| (the two terms can cancel): the floor is
    50 eps times the sizes.  The sums start from the first part, so a panel
    of -0.0 keeps its sign."""
    width, sums = hi - lo, []
    for order, ys, tail in parts:
        full, nested = _end_rule(order)
        v = full if len(ys) == len(full) else nested
        terms = list(map(operator.mul, v, ys))
        head, scale = ys[-1] / order, width ** order
        sums.append((scale * (head + math.fsum(terms)),
                     scale * (tail and tail * math.fsum(map(abs, v))),
                     scale * (abs(head) + math.fsum(map(abs, terms)))))
    (val, err, floor), *rest = sums
    for x, e, f in rest:
        val, err, floor = val + x, err + e, floor + f
    return val, err, 50.0 * _EPS * floor, len(parts[0][1])


def _power_rule(h: Callable[[float], float], beta: float,
                parts: Callable[[float], tuple[float, float]] | None,
                end: float, upper: bool) -> tuple[Callable, Callable]:
    """The panel rule of _adaptive, and its reader, for int (d^(beta-1)
    S(d) + R(d)) h(t) dt on an ascending mesh: d is a node's distance from
    the singular end `end`, the hi (upper) or lo of the panel touching it,
    and (S, R) = parts(d), or (1, 0) for parts None, which reads no R.
    Every panel is on _end_nodes, h read at its abscissae and d at the
    nodes of its distances from end.  The panel at end takes R h by the
    order-1 rule and S h by _end_rule(beta); every other takes (d^(beta-1)
    S + R) h by the order-1 rule, a term 0.0 where h is, whatever
    d^(beta-1) (it overflows at subnormal d).  read(lo, hi) reads h at the
    13 even nodes, the Chebyshev points of degree 12, and at the 12 odd
    ones only when a part's degree-12 series is short of its rounding
    plateau (_tail; a doubly adaptive panel, Oliver, Comput. J. 15, 1972),
    and gives _cheb_panel's parts (order, ys, tail) at the nodes read.  A
    non-finite term raises EvaluationError at the first bad abscissa of the
    nodes read, in node order."""
    bm1 = beta - 1.0

    def terms(at_end: bool, ds: Sequence[float], hs: list[float]
              ) -> list[tuple[float, list[float]]]:
        if parts is None:
            if at_end:
                return [(beta, hs)]
            return [(1.0, [d ** bm1 * y if y else 0.0
                           for d, y in zip(ds, hs)])]
        ss, rs = zip(*map(parts, ds))
        if at_end:
            return [(1.0, list(map(operator.mul, rs, hs))),
                    (beta, list(map(operator.mul, ss, hs)))]
        return [(1.0, [(d ** bm1 * s + r) * y if y else 0.0
                       for d, s, r, y in zip(ds, ss, rs, hs)])]

    def read(lo: float, hi: float) -> list[tuple[float, list[float], float]]:
        xs = _end_nodes(lo, hi, upper)
        near, far = (end - hi, end - lo) if upper else (lo - end, hi - end)
        ds = _end_nodes(near, far, False)
        even = list(map(h, xs[::2]))
        got = terms(not near, ds[::2], even)
        if any(_tail(ys) for _, ys in got):  # a part short of its plateau
            hs = [y for pair in zip(even, map(h, xs[1::2])) for y in pair]
            got = [(order, ys, _tail(ys))
                   for order, ys in terms(not near, ds, hs + even[-1:])]
        else:  # every part at its plateau
            xs, got = xs[::2], [(order, ys, 0.0) for order, ys in got]
        for _, ys, _ in got:  # before fsum, which raises on inf - inf
            _check_finite(xs, ys)
        return got

    return (lambda lo, hi: _cheb_panel(lo, hi, read(lo, hi))), read


def integrate_odd(h: Callable[[float], float], alpha: float,
                  parts: Callable[[float], tuple[float, float]],
                  mesh: Sequence[float], tol: float = DEFAULT_TOL
                  ) -> QuadResult:
    """int_0^X (x^alpha S(x) + R(x)) h(x) dx for (S, R) = parts(x), X =
    mesh[-1], with h given on the offsets x.

    By _adaptive from the ascending mesh of offsets on _power_rule's
    panels at beta = alpha + 1 from 0: S h by _end_rule(alpha+1) and R h
    by the order-1 rule on the panel at 0, (x^alpha S + R) h by the
    order-1 rule elsewhere.  The identities pass the fold d(a+x) - d(b-x)
    of f' = d, for a kernel odd about the midpoint, and aux-integrals its
    moments.  A non-finite h raises EvaluationError at the first bad
    offset of the nodes read, in node order."""
    check_order(alpha)
    panel, _ = _power_rule(h, alpha + 1.0, parts, 0.0, False)
    return _adaptive(panel, mesh, tol)[0]


def _antiderivative(c: Sequence[float], beta: float) -> list[float]:
    """The Chebyshev coefficients of Phi with int_0^u v^(beta-1) (p(v) -
    p(0)) dv = u^beta Phi(u), u = (1+s)/2, for p = sum_k c_k T_k(s): a
    spectral integration (Greengard, SIAM J. Numer. Anal. 28, 1991) for the
    weight v^(beta-1).  Phi solves beta Phi + (1+s) Phi'(s) = p - p(0);
    with Phi' = D_0/2 + sum_k D_k T_k, D_(k-1) = D_(k+1) + 2k phi_k, that is
    (beta+k) phi_k = c_k - D_k - D_(k+1) for k >= 1, solved downward, and
    Phi(-1) = 0 gives phi_0."""
    phi = [0.0] * len(c)
    d1 = d2 = 0.0  # D_k, D_(k+1)
    for k in range(len(c) - 1, 0, -1):
        phi[k] = (c[k] - d1 - d2) / (beta + k)
        d1, d2 = d2 + 2 * k * phi[k], d1
    phi[0] = math.fsum(p if k % 2 else -p for k, p in enumerate(phi) if k)
    return phi


def _chebyshev(d: Sequence[float], s: float) -> float:
    """sum_k d_k T_k(s) by Clenshaw's recurrence in Reinsch's form, on
    differences from the end s is nearer, whose rounding, unlike the plain
    form's, does not grow toward s = -1 and 1."""
    sign = 1.0 if s >= 0.0 else -1.0
    u = s - sign
    b = e = 0.0
    for dk in reversed(d[1:]):
        e = dk + 2.0 * u * b + sign * e
        b = sign * b + e
    return d[0] + u * b + sign * e


class CumulativeKernel:
    """The signed kernel K(t) on [a, b] of a weight g symmetric about the
    midpoint m:

    K(t) = int_a^t (b-s)^(alpha-1) g(s) ds - int_t^b (s-a)^(alpha-1) g(s) ds.

    Symmetry makes K(m) = 0 and K(a+b-t) = -K(t), so K is one integral of
    its derivative ((b-s)^(alpha-1) + (s-a)^(alpha-1)) g(s): K(t) is minus
    its integral from t to m, and above m, K(t) is -K at the offset b - t.
    For an asymmetric g the result is not its kernel; the caller checks
    symmetry.

    Only the half [a, m] is built, in the offset x = s - a: the factors
    read x^(alpha-1) and (w-x)^(alpha-1) for w = b - a, never a rounded
    b - s or s - a, and g is read at a + x.  With g = g(a) + (g - g(a)),

        K(a+x) = c (x^alpha - (w-x)^alpha)
                 - int_x^(w/2) (v^(alpha-1) + (w-v)^(alpha-1)) h(v) dv

    for c = g(a)/alpha (`c`) and h(v) = g(a+v) - g(a): the first term is
    identity 1.4's kernel in closed form, and the integral of the rest is
    one adaptive integral over [0, w/2] on _power_rule's panels at beta =
    alpha, (S, R) = (1, (w-x)^(alpha-1)), whose final panels ("leaves")
    it keeps: their ends and prefix sums.  Each leaf hands _adaptive its
    rounding floor, which `abs_error_estimate` includes.  K at x
    integrates the degree-12 or degree-24 interpolants of the leaves, at
    the nodes the build read (_antiderivative, whole leaves by their
    prefix sums), so it is continuous and 0.0 at m: `parts` gives it as
    x^alpha S + R on the leaves, whose ends are `ends`, for integrate_odd.
    g is read through an Integrand (a callable gets its own), whose table
    the build shares with every reader of g; the first x inside a leaf
    reads its nodes again, so K calls g only past TABLE_CAP.  The parts at
    each x are computed once and kept, so their memory grows with the
    distinct offsets read.  K(t) is read by no verifier; `evaluations`
    counts the calls of the build and of K(t).
    """

    def __init__(self, g: Integrand | Callable[[float], float],
                 a: float, b: float, alpha: float, tol: float = DEFAULT_TOL):
        check_interval(a, b)
        check_order(alpha)
        if not (tol > 0):
            raise DomainError(f"tolerance must be positive, got {tol!r}")
        half = 0.5 * (b - a)
        if not (half > 0.0):
            raise DomainError(f"the half width of [{a!r}, {b!r}] underflows")
        # b - a, but at an odd subnormal width, where w - w/2 misses w/2
        w = self._w = 2.0 * half
        self.a, self.b, self.alpha = a, b, alpha
        self._g = g if isinstance(g, Integrand) else Integrand(g)
        calls, gx, am1 = self._g.calls, self._g.__call__, alpha - 1.0
        ga = gx(a)
        self.c = ga / alpha
        panel, self._read = _power_rule(
            lambda x: gx(a + x) - ga, alpha,
            lambda x: (1.0, (w - x) ** am1), 0.0, False)
        r, heap = _adaptive(panel, (0.0, half), tol / 4)
        heap.sort(key=operator.itemgetter(2))  # the leaves tile [0, w/2]
        self.ends = array("d", [e[2] for e in heap] + [half])
        self._pre = array("d", accumulate((e[4] for e in heap), initial=0.0))
        self.abs_error_estimate = r.abs_error_estimate
        self.tolerance_met = r.tolerance_met
        self._dense: dict[int, tuple] = {}  # leaf -> its Phi's coefficients
        self._parts: dict[float, tuple] = {}  # x -> (S, R), each computed once
        self.evaluations = self._g.calls - calls

    def __call__(self, t: float) -> float:
        """K(t).  A read of g, by the first t in a leaf, goes through the
        kernel's Integrand, which checks it finite."""
        a, b, half = self.a, self.b, self.ends[-1]
        if not (a <= t <= b):
            raise DomainError(f"t = {t!r} outside [{a!r}, {b!r}]")
        calls = self._g.calls
        x, sign = (t - a, 1.0) if t - a <= half else (min(b - t, half), -1.0)
        k, r = self.parts(x)
        self.evaluations += self._g.calls - calls
        return sign * (x ** self.alpha * k + r)

    def parts(self, x: float) -> tuple[float, float]:
        """(S, R) with K(a+x) = x^alpha S(x) + R(x) at the offset x in [0,
        w/2]: S is c plus, on the leaf at 0, the series at order alpha, and
        R minus the integral of the leaves' order-1 series from x to w/2,
        less c (w-x)^alpha."""
        kr = self._parts.get(x)
        if kr is not None:
            return kr
        ends, c = self.ends, self.c
        j = bisect_right(ends, x) - 1
        lo, k, r = ends[j], c, self._pre[j] - self._pre[-1]
        if x > lo:  # inside leaf j
            d = self._dense.get(j)
            if d is None:
                d = self._dense[j] = self._leaf(lo, ends[j + 1])
            s = 2.0 * (x - lo) / (ends[j + 1] - lo) - 1.0
            r += (x - lo) * _chebyshev(d[0], s)
            if not lo:
                k += _chebyshev(d[1], s)
        kr = self._parts[x] = k, r - c * (self._w - x) ** self.alpha
        return kr

    def _leaf(self, lo: float, hi: float) -> tuple[list[float], ...]:
        """The Chebyshev coefficients of the leaf's Phi (_antiderivative),
        one per part of the build's reader: at order 1, its p(lo) added, and
        on the leaf at 0, of h at order alpha."""
        parts = self._read(lo, hi)
        rows = _chebyshev_rows(len(parts[0][1]) - 1)
        phis = [_antiderivative([sum(map(operator.mul, row, ys))
                                 for row in rows], order)
                for order, ys, _ in parts]
        phis[0][0] += parts[0][1][-1]
        return tuple(phis)
