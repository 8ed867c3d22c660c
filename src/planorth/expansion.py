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
complex exponential of ``(Re V + N log|phi|) + i (Im V + N arg phi)``; its
relative error is of order ``N eps``, the condition of ``phi^N`` itself.

``V o psi`` and every ``X_j`` have only modes ``k <= 0``, so each is a
polynomial in ``w = 1/zeta``; the model keeps them once as such
(:attr:`ExpansionModel.point_table`, built on the first pointwise request).
Every pointwise evaluator reads one pass over its mapped points: one
reciprocal ``w``, Horner loops in ``w`` for ``V`` and the weighted row sum
``sum_j N^-j X_j``, and ``|zeta|`` and ``psi'`` from the inversion.

Evaluation is restricted to the region ``|phi(z)| >= 1 - A log(N)/N`` (points
deeper inside the domain are refused rather than silently extrapolated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import laplace
from .errors import NonFiniteError, OutOfValidityError, stage
from .geometry import (ExteriorMap, SzegoData, WeightDef, WeightSpec, _default_inner_radius,
                       _map_forward, pullback_weight, szego)
from .hierarchy import HierarchyCoeffs, solve_hierarchy
from .laplace import NormExpansion, norm_expansion
from .series import _horner

N_MIN = 4


@dataclass(frozen=True, eq=False)
class ExpansionModel:
    map: ExteriorMap
    weight: WeightSpec
    szego: SzegoData
    coeffs: HierarchyCoeffs
    norm: NormExpansion
    validity_constant: float = 1.0

    @property
    def order(self) -> int:
        return self.coeffs.order

    @property
    def inner_radius(self) -> float:
        return self.szego.inner_radius

    @cached_property
    def point_table(self) -> tuple:
        """``(v, x)``: ``v[n]`` is mode ``-n`` of ``V o psi`` and ``x[n, j]``
        mode ``-n`` of ``X_j``, cut after the last nonzero mode.  Neither has a
        mode ``k >= 1``, so ``V`` and the ``X_j`` at ``zeta`` are polynomials
        in ``w = 1/zeta`` with these coefficients.  Built on the first
        pointwise request and kept with the model."""
        return _in_w(self.szego.v_exterior.coeffs), _in_w(self.coeffs.stack.T)

    @cached_property
    def products(self) -> np.ndarray:
        """The products ``A_j = X_j E`` (:func:`~planorth.laplace._product_stack`),
        built on the first read: the L2 comparison and :attr:`moments` read them."""
        return laplace._product_stack(self.szego, self.coeffs, self.order)

    @cached_property
    def moments(self) -> np.ndarray:
        """The boundary-distribution moment table ``B[j, k, mu, 2S + p]``
        (:func:`~planorth.laplace._moment_table`), built on its first use."""
        return laplace._moment_table(self.products, self.products.shape[1] - 1)


def _in_w(c: np.ndarray) -> np.ndarray:
    """Modes ``0, -1, -2, ...`` of the centred series ``c`` (along axis 0),
    up to the last mode that is nonzero in some column."""
    K = (c.shape[0] - 1) // 2
    a = c[K::-1]
    nz = np.flatnonzero(np.any(a.reshape(K + 1, -1) != 0, axis=1))
    return a[:nz[-1] + 1 if nz.size else 1].copy()


def build_model(m: ExteriorMap, weight_def: WeightDef, order: int,
                bidegree: int = 24, inner_radius: float | None = None,
                validity_constant: float = 1.0) -> ExpansionModel:
    """Run the full pipeline: pullback, outer function, recursion, norm constants.
    A :class:`PlanorthError` from a step is prefixed with ``[stage: <step>]``."""
    rho = inner_radius if inner_radius is not None else _default_inner_radius(m)
    with stage("weight-pullback"):
        ws = pullback_weight(m, weight_def, bidegree, rho)
    with stage("outer-function"):
        sz = szego(ws)
    with stage("hierarchy"):
        coeffs = solve_hierarchy(sz, order)
    with stage("norm-expansion"):
        norm = norm_expansion(sz, coeffs, order)
    return ExpansionModel(map=m, weight=ws, szego=sz, coeffs=coeffs, norm=norm,
                          validity_constant=validity_constant)


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


def _pointwise(model: ExpansionModel, N, zeta, weights=None, mapped=None):
    """One pass over mapped points ``zeta``: ``(factor, sums)`` with the
    positioning factor ``phi'(z) phi(z)^N e^V(z)`` at ``z = psi(zeta)``, in
    log-polar form ``exp((Re V + N log|zeta|) + i (Im V + N arg zeta)) /
    psi'(zeta)``, and the row sums ``sum_j weights[j, ...] X_j(zeta)`` (None
    without ``weights``).  ``w = 1/zeta`` is formed once; ``V``, the sums and,
    without ``mapped = (|zeta|, psi'(zeta))`` from the inversion, ``psi'`` are
    Horner loops in it over :attr:`ExpansionModel.point_table`.

    ``N`` is a degree or an array of degrees, whose axes lead the factor's
    ahead of the points' (the degree axis: every degree from the one ``w``,
    ``V`` and ``psi'``); the sums have the axes ``weights.shape[1:]`` ahead of
    the points', so the caller shapes both to broadcast.

    Real logs and angles and one complex exp replace ``exp(V) * zeta**N``
    (numpy takes a complex power with ``|N| >= 100``, like a complex
    ``np.log``, through costlier complex routines).  The relative error is of
    order ``N eps``, the condition of ``zeta^N``."""
    v_in_w, x_in_w = model.point_table
    zeta = np.asarray(zeta, dtype=np.complex128)
    w = np.reciprocal(zeta)
    modulus, prime = mapped or (np.abs(zeta), model.map.prime_at_reciprocal(w))
    v = _horner(v_in_w, w)
    if isinstance(N, np.ndarray):   # the degrees' axes, then the points'
        N = N.reshape(N.shape + (1,) * zeta.ndim)
    log_modulus = v.real + N * np.log(modulus)
    phase = v.imag + N * np.arctan2(zeta.imag, zeta.real)   # np.angle, without its wrapper
    factor = np.exp(log_modulus + 1j * phase) / prime
    if weights is None:
        return factor, None
    x = x_in_w[:, :len(weights)]
    c = x @ weights if weights.ndim < 3 else np.tensordot(x, weights, 1)
    if c.ndim > 1:   # one sum per column of weights, each over every point
        c = c.reshape(c.shape + (1,) * zeta.ndim)
    return factor, _horner(c, w)


def _neumann_weights(model: ExpansionModel, N: int, order: int | None) -> np.ndarray:
    """``N^-j``, ``j = 0 .. order``: the weights of the partial sum
    ``sum_j N^-j X_j``."""
    order = model.order if order is None else order
    if not 0 <= order <= model.order:
        raise ValueError("requested order must lie in [0, solved order]")
    return float(N) ** -np.arange(order + 1)


def check_valid(model: ExpansionModel, N: int, zeta, ok) -> None:
    """Raise :class:`OutOfValidityError` unless the degree is at least
    ``N_MIN`` and every point was mapped (``ok``, as from ``map_forward_many``)
    to ``zeta`` inside the validity region."""
    _check_mapped(model, N, np.asarray(ok), np.abs(zeta))


def _check_mapped(model: ExpansionModel, N: int, ok, modulus) -> None:
    """:func:`check_valid` given ``|zeta|``."""
    _require_degree(N)
    if not ok.all():
        raise OutOfValidityError("point could not be mapped into the analytic collar")
    r = validity_radius(N, model.validity_constant)
    if (modulus < r).any():
        # shortest round-trip digits: a refused point never reads equal to r
        raise OutOfValidityError(f"|phi(z)| = {float(np.min(modulus))!r} below the "
                                 f"validity radius {r!r} at degree {N}")


def _map_valid(model: ExpansionModel, N: int, z):
    """``(phi(z), (|phi(z)|, psi'(phi(z))))`` for points that pass :func:`check_valid`."""
    zeta, ok, modulus, prime = _map_forward(model.map, np.atleast_1d(np.asarray(z, complex)))
    _check_mapped(model, N, ok, modulus)
    return zeta, (modulus, prime)


def _positioned(model: ExpansionModel, N, zeta, scale, weights, what: str, mapped=None):
    """``scale`` times the positioning factor times the row sums over
    ``weights`` (the factor alone without them) at mapped points ``zeta``, from
    one :func:`_pointwise` pass at the degree or degrees ``N``.  Raises
    :class:`NonFiniteError`, naming ``what`` and the first degree, where a
    value leaves the float range."""
    # an overflowed factor makes the product inf or nan; both are refused
    with np.errstate(over="ignore", invalid="ignore"):
        factor, sums = _pointwise(model, N, zeta, weights, mapped)
        vals = scale * factor if sums is None else scale * (factor * sums)
    if not np.isfinite(vals).all():
        if isinstance(N, np.ndarray):   # the degrees lead the values' axes
            N = N.flat[np.argmin(np.isfinite(vals).reshape(N.size, -1).all(axis=1))]
        raise NonFiniteError(f"{what} out of float range at degree {N} "
                             f"(|phi(z)| up to {np.max(np.abs(zeta)):.4g})")
    return vals


def monic_at(model: ExpansionModel, N: int, zeta, order: int | None = None):
    """Asymptotic monic polynomial of degree ``N`` at mapped points ``zeta = phi(z)``
    (the degree is checked, the validity region is the caller's).  Raises
    :class:`NonFiniteError` where a value leaves the float range."""
    _require_degree(N)
    return _positioned(model, N, zeta, monic_prefactor(model, N),
                       _neumann_weights(model, N, order), "monic polynomial")


def monic_orders_at(model: ExpansionModel, N, zeta, order: int | None = None) -> np.ndarray:
    """:func:`monic_at` at mapped points ``zeta`` for every order ``0 ..
    order`` at once: row ``k`` holds the order-``k`` values, read from the
    partial sums ``sum_{j<=k} N^-j X_j``.  ``N`` is a degree or a 1-D array of
    degrees; for an array, row ``[d, k]`` holds degree ``N[d]``, and every
    degree and order comes from one :func:`_pointwise` pass."""
    degrees = np.atleast_1d(np.asarray(N))
    for n in degrees:
        _require_degree(n)
    prefactor = np.array([monic_prefactor(model, int(n)) for n in degrees])
    # column k of a degree's block holds N^-j for j <= k: sum k is the order-k partial sum
    weights = np.stack([np.triu(np.broadcast_to(powers[:, None], (powers.size, powers.size)))
                        for powers in (_neumann_weights(model, n, order) for n in degrees)],
                       axis=1)
    scale = prefactor.reshape((-1,) + (1,) * (1 + np.ndim(zeta)))
    vals = _positioned(model, degrees[:, None], zeta, scale, weights, "monic polynomial")
    return vals if np.ndim(N) else vals[0]


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
    return _positioned(model, N, zeta, normalized_scale(model, N, order),
                       _neumann_weights(model, N, order), "normalized polynomial")


def monic_eval(model: ExpansionModel, N: int, z, order: int | None = None):
    """Asymptotic value of the monic orthogonal polynomial of degree ``N``
    inside the validity region (:func:`monic_at` is the unchecked form)."""
    zeta, mapped = _map_valid(model, N, z)
    vals = _positioned(model, N, zeta, monic_prefactor(model, N),
                       _neumann_weights(model, N, order), "monic polynomial", mapped)
    return vals if np.ndim(z) else complex(vals[0])


def normalized_eval(model: ExpansionModel, N: int, z, order: int | None = None):
    """Asymptotic value of the unit-norm orthogonal polynomial of degree ``N``
    inside the validity region (:func:`normalized_at` is the unchecked form)."""
    zeta, mapped = _map_valid(model, N, z)
    vals = _positioned(model, N, zeta, normalized_scale(model, N, order),
                       _neumann_weights(model, N, order), "normalized polynomial", mapped)
    return vals if np.ndim(z) else complex(vals[0])
