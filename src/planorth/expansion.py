"""Assembly and pointwise evaluation of the polynomial asymptotics.

An :class:`ExpansionModel` bundles the exterior map, the outer-function data,
the solved correction coefficients and the norm-constant expansion for one
(domain, weight) pair.  The degree-``N`` monic orthogonal polynomial is then
approximated by::

    monic(z) ~ C_N * phi'(z) * phi(z)^N * exp(V(z)) * sum_j N^-j X_j(phi(z))

with ``C_N = cap^(N+1) exp(-V(inf))``, and the unit-norm polynomial by
``kappa_N * monic`` with ``kappa_N = C_N^-1 N^(1/2) D_N``: the positioned
sum times ``kappa_N C_N = N^(1/2) D_N``, which never forms ``C_N`` (a float
overflow for ``cap > 1`` at large ``N``).

The factor ``phi'(z) phi(z)^N e^V(z)`` is formed in log-polar form, one
complex exponential of ``(Re V + N log|phi|) + i (Im V + N arg phi)``
(:func:`positioning_factor`); its relative error is of order ``N eps``, the
condition of ``phi^N`` itself.

Evaluation is restricted to the region ``|phi(z)| >= 1 - A log(N)/N`` (points
deeper inside the domain are refused rather than silently extrapolated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, OutOfValidityError, stage
from .geometry import (ExteriorMap, SzegoData, WeightDef, WeightSpec, map_forward_many,
                       phi_prime, pullback_weight, szego)
from .hierarchy import HierarchyCoeffs, neumann_partial_sum, solve_hierarchy
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
        return self.szego.inner_radius


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


def _require_degree(N: int) -> None:
    if N < N_MIN:
        raise OutOfValidityError(f"degree {N} below the asymptotic threshold {N_MIN}")


def monic_prefactor(model: ExpansionModel, N: int) -> float:
    """Constant ``C_N = cap^(N+1) * exp(-V(inf))``, or :class:`NonFiniteError`
    where it leaves the float range."""
    log_c = (N + 1) * math.log(model.map.cap) - model.szego.v_infinity
    if abs(log_c) > math.log(np.finfo(float).max):
        raise NonFiniteError(f"C_N out of float range at degree {N} (log C_N = {log_c:.1f})")
    return float(model.map.cap ** (N + 1) * math.exp(-model.szego.v_infinity))


def leading_coeff(model: ExpansionModel, N: int, order: int | None = None) -> float:
    """Leading coefficient ``kappa_N = C_N^-1 N^(1/2) D_N`` of the unit-norm polynomial."""
    return normalized_scale(model, N, order) / monic_prefactor(model, N)


def positioning_factor(model: ExpansionModel, N: int, zeta) -> np.ndarray:
    """Factor ``phi'(z) phi(z)^N e^V(z)`` at the points ``z = psi(zeta)``, in
    log-polar form ``phi'(z) exp((Re V + N log|zeta|) + i (Im V + N arg zeta))``.

    Real logs and angles and one complex exp replace ``exp(V) * zeta**N``
    (numpy takes a complex power with ``|N| >= 100``, like a complex
    ``np.log``, through costlier complex routines).  The relative error is of
    order ``N eps``, the condition of ``zeta^N``."""
    v = model.szego.v_exterior.evaluate(zeta)
    log_modulus = v.real + N * np.log(np.abs(zeta))
    phase = v.imag + N * np.angle(zeta)
    return phi_prime(model.map, zeta) * np.exp(log_modulus + 1j * phase)


def position_at(model: ExpansionModel, f: CircleSeries, N: int, zeta):
    """The positioning operator at mapped points ``zeta = phi(z)``:
    ``phi'(z) phi(z)^N e^V(z) f(phi(z))``."""
    return positioning_factor(model, N, zeta) * f.evaluate(zeta)


def check_valid(model: ExpansionModel, N: int, zeta, ok) -> None:
    """Raise :class:`OutOfValidityError` unless the degree is at least
    ``N_MIN`` and every point was mapped (``ok``, as from ``map_forward_many``)
    to ``zeta`` inside the validity region."""
    _require_degree(N)
    if not np.all(ok):
        raise OutOfValidityError("point could not be mapped into the analytic collar")
    r = validity_radius(N, model.validity_constant)
    if np.any(np.abs(zeta) < r):
        # shortest round-trip digits: a refused point never reads equal to r
        raise OutOfValidityError(f"|phi(z)| = {float(np.min(np.abs(zeta)))!r} below the "
                                 f"validity radius {r!r} at degree {N}")


def _map_valid(model: ExpansionModel, N: int, z) -> np.ndarray:
    """``phi(z)`` for points that pass :func:`check_valid`."""
    zeta, ok = map_forward_many(model.map, np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    check_valid(model, N, zeta, ok)
    return zeta


def _require_finite(vals, what: str, N: int, zeta):
    """``vals`` at mapped points ``zeta``, or :class:`NonFiniteError`, naming
    ``what``, where one of them is not finite."""
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError(f"{what} out of float range at degree {N} "
                             f"(|phi(z)| up to {np.max(np.abs(zeta)):.4g})")
    return vals


def monic_at(model: ExpansionModel, N: int, zeta, order: int | None = None):
    """Asymptotic monic polynomial of degree ``N`` at mapped points ``zeta = phi(z)``
    (the degree is checked, the validity region is the caller's).  Raises
    :class:`NonFiniteError` where a value leaves the float range."""
    _require_degree(N)
    # an overflowed factor makes the product inf or nan; both are refused
    with np.errstate(over="ignore", invalid="ignore"):
        vals = monic_prefactor(model, N) * position_at(
            model, neumann_partial_sum(model.coeffs, N, order), N, zeta)
    return _require_finite(vals, "monic polynomial", N, zeta)


def monic_orders_at(model: ExpansionModel, N: int, zeta, xs: np.ndarray) -> np.ndarray:
    """:func:`monic_at` at one mapped point ``zeta`` (an array of one) for every
    order ``0 .. len(xs) - 1`` at once, from ``xs = X_0(zeta) .. X_order(zeta)``:
    the partial sums are the cumulative sums of ``N^-j X_j(zeta)``."""
    _require_degree(N)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = monic_prefactor(model, N) * (positioning_factor(model, N, zeta)
                                            * np.cumsum(float(N) ** -np.arange(len(xs)) * xs))
    return _require_finite(vals, "monic polynomial", N, zeta)


def normalized_scale(model: ExpansionModel, N: int, order: int | None = None) -> float:
    """``kappa_N C_N = N^(1/2) D_N``: the factor taking the positioned partial
    sum to the unit-norm polynomial (the degree is checked)."""
    _require_degree(N)
    return math.sqrt(N) * model.norm.factor(N, order)


def normalized_at(model: ExpansionModel, N: int, zeta, order: int | None = None):
    """Asymptotic unit-norm polynomial of degree ``N`` at mapped points
    ``zeta = phi(z)``: the positioned partial sum times :func:`normalized_scale`,
    so ``C_N`` is never formed.  Raises :class:`NonFiniteError` where a value
    leaves the float range."""
    scale = normalized_scale(model, N, order)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = scale * position_at(model, neumann_partial_sum(model.coeffs, N, order), N, zeta)
    return _require_finite(vals, "normalized polynomial", N, zeta)


def monic_eval(model: ExpansionModel, N: int, z, order: int | None = None):
    """Asymptotic value of the monic orthogonal polynomial of degree ``N``
    inside the validity region (:func:`monic_at` is the unchecked form)."""
    vals = monic_at(model, N, _map_valid(model, N, z), order)
    return vals if np.ndim(z) else complex(vals[0])


def normalized_eval(model: ExpansionModel, N: int, z, order: int | None = None):
    """Asymptotic value of the unit-norm orthogonal polynomial of degree ``N``
    inside the validity region (:func:`normalized_at` is the unchecked form)."""
    vals = normalized_at(model, N, _map_valid(model, N, z), order)
    return vals if np.ndim(z) else complex(vals[0])
