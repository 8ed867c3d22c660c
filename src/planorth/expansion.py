"""Assembly and pointwise evaluation of the polynomial asymptotics.

An :class:`ExpansionModel` bundles the exterior map, the outer-function data,
the solved correction coefficients and the norm-constant expansion for one
(domain, weight) pair.  The degree-``N`` monic orthogonal polynomial is then
approximated by::

    monic(z) ~ C_N * phi'(z) * phi(z)^N * exp(V(z)) * sum_j N^-j X_j(phi(z))

with ``C_N = cap^(N+1) exp(-V(inf))``, and the unit-norm polynomial by
``kappa_N * monic`` with ``kappa_N = C_N^-1 N^(1/2) D_N``.

Evaluation is restricted to the region ``|phi(z)| >= 1 - A log(N)/N`` (points
deeper inside the domain are refused rather than silently extrapolated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfValidityError, stage
from .geometry import (ExteriorMap, SzegoData, WeightDef, WeightSpec, map_forward_many,
                       phi_prime, pullback_weight, szego)
from .hierarchy import HierarchyCoeffs, solve_hierarchy
from .laplace import NormExpansion, norm_expansion
from .series import CircleSeries

N_MIN = 4


@dataclass(frozen=True, eq=False)
class ExpansionModel:
    map: ExteriorMap
    weight: WeightSpec
    szego: SzegoData
    coeffs: HierarchyCoeffs
    norm: NormExpansion
    order: int
    validity_constant: float = 1.0

    @property
    def inner_radius(self) -> float:
        return self.szego.omega_flat.inner_radius


def build_model(m: ExteriorMap, weight_def: WeightDef, order: int,
                bidegree: int = 24, inner_radius: float | None = None,
                validity_constant: float = 1.0) -> ExpansionModel:
    """Run the full pipeline: pullback, outer function, recursion, norm constants.
    A :class:`PlanorthError` from a step is prefixed with ``[stage: <step>]``."""
    rho = inner_radius if inner_radius is not None else max(0.7, m.univalence_margin + 0.05)
    with stage("weight-pullback"):
        ws = pullback_weight(m, weight_def, bidegree, rho)
    with stage("outer-function"):
        sz = szego(ws)
    with stage("hierarchy"):
        coeffs = solve_hierarchy(sz, order)
    with stage("norm-expansion"):
        norm = norm_expansion(sz, coeffs, order)
    return ExpansionModel(map=m, weight=ws, szego=sz, coeffs=coeffs, norm=norm,
                          order=order, validity_constant=validity_constant)


def validity_radius(N: int, constant: float = 1.0) -> float:
    """Inner bound on ``|phi(z)|`` where the degree-``N`` expansion is trusted."""
    return 1.0 - constant * math.log(N) / N


def _phi_many(model: ExpansionModel, zs: np.ndarray):
    zeta, ok = map_forward_many(model.map, zs)
    return zeta, ok


def _require_valid(model: ExpansionModel, N: int, zeta: np.ndarray, ok: np.ndarray,
                   check_validity: bool) -> None:
    if N < N_MIN:
        raise OutOfValidityError(f"degree {N} below the asymptotic threshold {N_MIN}")
    if not np.all(ok):
        raise OutOfValidityError("point could not be mapped into the analytic collar")
    if check_validity:
        r = validity_radius(N, model.validity_constant)
        if np.any(np.abs(zeta) < r):
            worst = float(np.min(np.abs(zeta)))
            raise OutOfValidityError(
                f"|phi(z)| = {worst:.4f} below the validity radius {r:.4f} at degree {N}")


def monic_prefactor(model: ExpansionModel, N: int) -> float:
    """Constant ``C_N = cap^(N+1) * exp(-V(inf))``."""
    return float(model.map.cap ** (N + 1) * math.exp(-model.szego.v_infinity))


def norm_factor(model: ExpansionModel, N: int, order: int | None = None) -> float:
    """Truncated norm correction ``D_N``."""
    return model.norm.factor(N, order)


def leading_coeff(model: ExpansionModel, N: int, order: int | None = None) -> float:
    """Leading coefficient ``kappa_N = C_N^-1 N^(1/2) D_N`` of the unit-norm polynomial."""
    if N < N_MIN:
        raise OutOfValidityError(f"degree {N} below the asymptotic threshold {N_MIN}")
    return float(math.sqrt(N) * norm_factor(model, N, order) / monic_prefactor(model, N))


def positioning_factor(model: ExpansionModel, N: int, zeta) -> np.ndarray:
    """Factor ``phi'(z) phi(z)^N e^V(z)`` at the points ``z = psi(zeta)``."""
    return (phi_prime(model.map, zeta) * zeta ** N
            * np.exp(model.szego.v_exterior.evaluate(zeta)))


def canonical_position(model: ExpansionModel, f: CircleSeries, N: int, z,
                       check_validity: bool = False):
    """Apply the positioning operator: ``phi'(z) phi(z)^N e^V(z) f(phi(z))``."""
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    zeta, ok = _phi_many(model, zs)
    _require_valid(model, N, zeta, ok, check_validity)
    vals = positioning_factor(model, N, zeta) * f.evaluate(zeta)
    return vals if np.ndim(z) else complex(vals[0])


def monic_eval(model: ExpansionModel, N: int, z, order: int | None = None,
               check_validity: bool = True):
    """Asymptotic value of the monic orthogonal polynomial of degree ``N``."""
    order = model.order if order is None else order
    if order > model.order:
        raise ValueError("requested order exceeds the model order")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    zeta, ok = _phi_many(model, zs)
    _require_valid(model, N, zeta, ok, check_validity)
    s = np.zeros(zs.shape, dtype=np.complex128)
    for j in range(order + 1):
        s += float(N) ** (-j) * model.coeffs.X[j].evaluate(zeta)
    vals = monic_prefactor(model, N) * positioning_factor(model, N, zeta) * s
    return vals if np.ndim(z) else complex(vals[0])


def normalized_eval(model: ExpansionModel, N: int, z, order: int | None = None,
                    check_validity: bool = True):
    """Asymptotic value of the unit-norm orthogonal polynomial of degree ``N``."""
    vals = monic_eval(model, N, z, order=order, check_validity=check_validity)
    return leading_coeff(model, N, order) * vals
