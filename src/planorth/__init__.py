"""Asymptotic expansions of weighted planar orthogonal polynomials.

The package computes, to any requested order, the large-degree expansion of
orthogonal polynomials with respect to a positive real-analytic weight on a
bounded Jordan domain with analytic boundary, and validates every computed
quantity against a brute-force orthogonalization oracle.
"""

from .errors import (ConfigError, ConsistencyError, ConvergenceError, DegreeTooHighError,
                     DomainError, NonFiniteError, NonStarlikeError, OffSpectralError,
                     OutOfValidityError, PlanorthError, PositivityError,
                     TruncationOverflowError, WeightResolutionError)
from .series import (AnnulusSeries, CircleSeries, annulus_constant, annulus_from_terms,
                     annulus_zeros, circle_from_modes, circle_zeros, conjugate_lift,
                     hardy_project, herglotz, lift_holomorphic, multiply, radial,
                     restrict_to_circle, series_exp, wirtinger_z, wirtinger_zbar)
from .geometry import (ExteriorMap, SzegoData, WeightDef, WeightSpec, capacity,
                       constant_weight, disk_map, ellipse_map, exp_re_linear_weight,
                       exp_re_poly_weight, exterior_map, load_domain_config, map_forward,
                       perturbed_disk_map, pullback_weight, sampled_weight, szego)
from .hierarchy import (HierarchyCoeffs, exterior_projection, hierarchy_residual,
                        neumann_partial_sum, solve_hierarchy, solve_hierarchy_triangular,
                        weighted_derivative)
from .laplace import JetAtZero, NormExpansion, norm_expansion, watson_sum, weighted_moments
from .expansion import (ExpansionModel, build_model, canonical_position, leading_coeff,
                        monic_eval, monic_prefactor, norm_factor, normalized_eval,
                        validity_radius)
from .oracle import (OraclePolynomials, QuadratureRule, berezin_expectation,
                     build_quadrature, holomorphic_pairing, l2_discrepancy, oracle_kernel,
                     oracle_onps, ring_quadrature, smoothstep)
from .distributional import (TestFunctionSplit, distributional_expectation,
                             distributional_terms, split_test_function, w_operator)
from .kernels import (OffSpectralPoint, bw_kernel_diag, off_spectral_point,
                      offspectral_leading, offspectral_phase, outer_rho)

__version__ = "0.1.0"
