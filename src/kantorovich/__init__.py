"""Exact optimal transport on finite metric spaces, with the categorical
structure around it made executable: Wasserstein distances with dual
certificates, tuple/multiset power metrics, empirical-distribution and
expectation maps, a probability monad whose laws are checked by evaluation,
convex algebras over normed spaces, and tolerance-certified approximation.
"""

from .algebras import (ConvexAlgebra, SimplexWeights, barycenter, c_lambda,
                       check_algebra_laws, check_metric_compat, convex_axioms,
                       mean_point, operad_compose)
from .approx import (ApproximationReport, convergence_study, rationalize,
                     sample_empirical, truncate_to_ball)
from .errors import KantorovichError, ParseError, ValidationError
from .graded import (NestedMultiSet, NestedTuple, check_assoc_square,
                     check_double_quotient, curry_flatten, flatten_multiset,
                     nested_tuple_distance, quotient_rows,
                     unit_discrepancy_multiset, unit_discrepancy_tuple)
from .laws import LawResult, run_law_suite
from .measures import (DiscreteMeasure, dirac, first_moment, measures_equal,
                       mixture, pushforward, weight_discrepancy)
from .monad import (NestedMeasure, bistochastic_min, check_expectation_flatten,
                    check_iota_isometry, check_monad_laws, check_ppx_square,
                    dirac_kernel, empirical, empirical_sym, expectation,
                    kernel_pushforward, multiset_from_measure, nested_dirac,
                    nested_expectation_outer, nested_weight_discrepancy)
from .power import (FinUnifMap, MultiSet, PointTuple, multiset_distance,
                    multiset_distance_bruteforce, precompose, quotient,
                    repeat_embedding, tuple_distance, validate_finunif)
from .samplers import RNG_ALGORITHM, rng_from
from .spaces import (EuclideanSpace, FiniteMetricSpace, MetricViolation,
                     check_isometric, check_short, convex_combination_space,
                     product_index, tensor_product, validate_metric,
                     vector_distance)
from .tolerances import EXACT_TOL, TAU_METRIC, TAU_SOLVER, TAU_WEIGHT
from .transport import (Coupling, DualPotential, TransportResult,
                        coupling_cost, validate_coupling,
                        w1_assignment, w1_bruteforce, w1_dual_value, w1_flow,
                        wasserstein1)

__version__ = "0.1.0"

__all__ = [
    "ApproximationReport", "ConvexAlgebra", "Coupling", "DiscreteMeasure",
    "DualPotential", "EXACT_TOL", "EuclideanSpace", "FinUnifMap",
    "FiniteMetricSpace", "KantorovichError", "LawResult",
    "MetricViolation", "MultiSet", "NestedMeasure", "NestedMultiSet",
    "NestedTuple", "ParseError", "PointTuple", "RNG_ALGORITHM",
    "SimplexWeights", "TAU_METRIC", "TAU_SOLVER", "TAU_WEIGHT",
    "TransportResult", "ValidationError", "barycenter", "bistochastic_min",
    "c_lambda", "check_algebra_laws", "check_assoc_square",
    "check_double_quotient", "check_expectation_flatten",
    "check_iota_isometry", "check_isometric", "check_metric_compat",
    "check_monad_laws", "check_ppx_square", "check_short",
    "convergence_study", "convex_axioms", "convex_combination_space",
    "coupling_cost", "curry_flatten", "dirac", "dirac_kernel", "empirical",
    "empirical_sym", "expectation", "first_moment", "flatten_multiset",
    "kernel_pushforward", "mean_point", "measures_equal", "mixture",
    "multiset_distance", "multiset_distance_bruteforce",
    "multiset_from_measure", "nested_dirac", "nested_expectation_outer",
    "nested_tuple_distance", "nested_weight_discrepancy", "operad_compose",
    "precompose", "product_index", "pushforward", "quotient",
    "quotient_rows", "rationalize", "repeat_embedding", "rng_from",
    "run_law_suite", "sample_empirical", "tensor_product", "truncate_to_ball",
    "tuple_distance", "unit_discrepancy_multiset", "unit_discrepancy_tuple",
    "validate_coupling", "validate_finunif", "validate_metric",
    "vector_distance", "w1_assignment", "w1_bruteforce", "w1_dual_value",
    "w1_flow", "wasserstein1", "weight_discrepancy",
]
