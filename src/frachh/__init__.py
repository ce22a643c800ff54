"""Numerical verification of Hermite-Hadamard / Fejer type statements
for fractional integral means.

The package splits into small layers:

* numerics: adaptive Gauss-Kronrod quadrature, singular-kernel
  integration, and the cumulative kernel K (CumulativeKernel),
* functions: the convex-function and symmetric-weight corpus with
  certification metadata,
* fracops: one-sided fractional integral means,
* inequalities: the verifiers, each returning a Report whose verdict
  comes from one rule.  Bound 1.5 and Theorems 2.4-2.7 are one
  weighted_bound over the WEIGHTED_BOUNDS table, the unweighted and
  classical statements are the unit-weight (g = None) and alpha = 1
  cases, and Cell computes the quantities they share once per
  (f, g, alpha) cell,
* cli: the ``frachh`` command, dispatching from its THEOREMS registry.
"""

from .fracops import FracSetting, j_left, j_right
from .functions import (ConvexityKind, FunctionSpec, HolderPair, WeightSpec,
                        builtin_function_corpus, builtin_weight_corpus)
from .inequalities import (WEIGHTED_BOUNDS, Cell, Report, Status,
                           WeightedBound, aux_integrals, check_symmetry_lemma,
                           fejer_classical, fejer_fractional, hh_classical,
                           scalar_power_lemma, weighted_bound,
                           weighted_trapezoid_identity)
from .numerics import (DEFAULT_TOL, CumulativeKernel, DomainError,
                       EvaluationError, KernelSide, QuadResult, gamma,
                       integrate_singular, integrate_smooth)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "DEFAULT_TOL", "CumulativeKernel", "DomainError", "EvaluationError",
    "KernelSide", "QuadResult", "gamma", "integrate_singular",
    "integrate_smooth",
    # functions
    "ConvexityKind", "FunctionSpec", "HolderPair", "WeightSpec",
    "builtin_function_corpus", "builtin_weight_corpus",
    # fracops
    "FracSetting", "j_left", "j_right",
    # inequalities
    "Cell", "Report", "Status", "WEIGHTED_BOUNDS", "WeightedBound",
    "aux_integrals", "check_symmetry_lemma", "fejer_classical",
    "fejer_fractional", "hh_classical", "scalar_power_lemma",
    "weighted_bound", "weighted_trapezoid_identity",
]
