"""Asymptotic expansions of weighted planar orthogonal polynomials.

The package computes, to any requested order, the large-degree expansion of
orthogonal polynomials with respect to a positive real-analytic weight on a
bounded Jordan domain with analytic boundary, and validates every computed
quantity against a brute-force orthogonalization oracle.
"""

from .errors import (ConfigError, ConsistencyError, ConvergenceError, DegreeTooHighError,
                     DomainError, NonFiniteError, OffSpectralError, OutOfValidityError,
                     PlanorthError, PositivityError, TruncationOverflowError,
                     WeightResolutionError)
from .series import (AnnulusSeries, CircleSeries, annulus_from_terms, circle_exp,
                     circle_from_modes, hardy_project, truncate)
from .geometry import (ExteriorMap, SzegoData, WeightDef, WeightSpec, constant_weight,
                       disk_map, ellipse_map, exp_re_linear_weight, exp_re_poly_weight,
                       load_domain_config, map_forward, pullback_weight, sampled_weight, szego)
from .hierarchy import (HierarchyCoeffs, hierarchy_residual, hierarchy_residuals,
                        solve_hierarchy, weighted_derivative)
from .laplace import JetAtZero, NormExpansion, norm_expansion, watson_sum
from .expansion import (ExpansionModel, build_model, leading_coeff, monic_at, monic_eval,
                        monic_orders_at, monic_prefactor, normalized_at, normalized_eval,
                        validity_radius)
from .oracle import (BoundaryRule, OraclePolynomials, berezin_expectations, boundary_onps,
                     boundary_rule, l2_discrepancies, oracle_kernel, smoothstep)
from .distributional import (TestFunctionSplit, distributional_expectation,
                             distributional_expectations, distributional_terms, split_terms,
                             split_test_function)
from .kernels import (OffSpectralPoint, bw_kernel_diag, off_spectral_point,
                      offspectral_leading, offspectral_phase, outer_rho)

__version__ = "0.1.0"
