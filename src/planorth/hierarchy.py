"""Closed-form recursion for the expansion correction coefficients.

The corrections are boundary functions ``X_0, X_1, ...`` with ``X_0 == 1`` and
``X_j`` (for ``j >= 1``) supported on modes ``k <= -1``.  They solve a
recursive family of scalar jump problems across the unit circle driven by two
operators:

* the weighted first-order operator ``T f = (1/Omega) (z d/dz + 1)(f Omega)``
  (:func:`weighted_derivative`), and
* the composition "restrict to the circle, keep modes k <= -1"
  (:func:`exterior_projection`).

``solve_hierarchy`` evaluates the product form of the solution,
``solve_hierarchy_triangular`` the equivalent triangular sum; they are kept
separate purely for cross-validation.

``T`` is applied through the exact identity ``T f = z df/dz + f + f z dU/dz``:
``Omega = exp U`` with ``U`` stored (``SzegoData.log_omega_flat``), so no
truncated reciprocal ``1/Omega`` is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .geometry import SzegoData
from .series import (AnnulusSeries, CircleSeries, circle_from_modes, hardy_project,
                     lift_holomorphic, multiply, restrict_to_circle, wirtinger_z)


@dataclass(frozen=True, eq=False)
class HierarchyCoeffs:
    """Solved corrections ``X[0..order]``; ``X[0]`` is the constant one and
    every later entry is tagged exterior-vanishing."""

    order: int
    X: tuple

    def __post_init__(self):
        if len(self.X) != self.order + 1:
            raise ConsistencyError("correction list length does not match order")


def weighted_derivative(f: AnnulusSeries, szego: SzegoData) -> AnnulusSeries:
    """Apply ``T f = (1/Omega)(z d/dz + 1)(f Omega)`` on the annulus as
    ``z df/dz + f + f z dU/dz``, exact since ``z dOmega/dz = Omega z dU/dz``."""
    U = szego.log_omega_flat
    return wirtinger_z(f) + f + multiply(f, wirtinger_z(U), cap=U.bidegree)


def exterior_projection(a: AnnulusSeries) -> CircleSeries:
    """Restrict to the circle and keep only modes ``k <= -1``."""
    return hardy_project(restrict_to_circle(a))


def _one(szego: SzegoData) -> CircleSeries:
    K = 2 * szego.omega_flat.bidegree
    return circle_from_modes({0: 1.0}, K)


def solve_hierarchy(szego: SzegoData, order: int) -> HierarchyCoeffs:
    """Corrections from the product form of the recursion.

    Iterates ``W -> (projected lift of T W) - T W`` on annulus intermediates,
    harvesting ``X_p`` as the projection of ``T W`` at each step.  Restricting
    before the next application would destroy the recursion: the weighted
    derivative of an iterate is genuinely non-holomorphic.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    M = szego.omega_flat.bidegree
    rho = szego.omega_flat.inner_radius
    xs = [_one(szego)]
    W = lift_holomorphic(xs[0], M, rho)
    for _ in range(1, order + 1):
        A = weighted_derivative(W, szego)
        Xp = exterior_projection(A)
        xs.append(Xp)
        W = lift_holomorphic(Xp, M, rho) - A
    return HierarchyCoeffs(order=order, X=tuple(xs))


def solve_hierarchy_triangular(szego: SzegoData, order: int) -> HierarchyCoeffs:
    """Corrections from the triangular sum
    ``X_p = sum_{l<p} (-1)^{p-l+1} Q T^{p-l} X_l``; cross-validation only."""
    if order < 0:
        raise ValueError("order must be >= 0")
    M = szego.omega_flat.bidegree
    rho = szego.omega_flat.inner_radius
    xs = [_one(szego)]
    iterates = {0: [lift_holomorphic(xs[0], M, rho)]}  # iterates[l][i] = T^i (lift X_l)
    for p in range(1, order + 1):
        for l in range(p):
            seq = iterates[l]
            while len(seq) < p - l + 1:
                seq.append(weighted_derivative(seq[-1], szego))
        acc = None
        for l in range(p):
            term = exterior_projection(iterates[l][p - l]) * ((-1.0) ** (p - l + 1))
            acc = term if acc is None else acc + term
        Xp = hardy_project(acc)
        xs.append(Xp)
        iterates[p] = [lift_holomorphic(Xp, M, rho)]
    return HierarchyCoeffs(order=order, X=tuple(xs))


def hierarchy_residual(coeffs: HierarchyCoeffs, szego: SzegoData, p: int) -> float:
    """Defect of the order-``p`` jump condition.

    Forms ``sum_{l<=p} (-1)^{p-l} T^{p-l} X_l`` restricted to the circle and
    returns the largest absolute coefficient over modes ``k <= -1``; the exact
    solution leaves only modes ``k >= 0`` (the combined jump data extends
    holomorphically into the disk).
    """
    if not (1 <= p <= coeffs.order):
        raise ValueError("need 1 <= p <= order")
    M = szego.omega_flat.bidegree
    rho = szego.omega_flat.inner_radius
    total = None
    for l in range(p + 1):
        a = lift_holomorphic(coeffs.X[l], M, rho)
        for _ in range(p - l):
            a = weighted_derivative(a, szego)
        term = restrict_to_circle(a) * ((-1.0) ** (p - l))
        total = term if total is None else total + term
    K = total.bandwidth
    return float(np.max(np.abs(total.coeffs[:K]))) if K else 0.0


def neumann_partial_sum(coeffs: HierarchyCoeffs, N: float, order: int | None = None) -> CircleSeries:
    """Partial sum ``sum_{j<=order} N^{-j} X_j`` as a circle series."""
    if N < 1:
        raise ValueError("N must be >= 1")
    order = coeffs.order if order is None else order
    if order > coeffs.order:
        raise ValueError("requested order exceeds solved order")
    acc = coeffs.X[0]
    for j in range(1, order + 1):
        acc = acc + coeffs.X[j] * (float(N) ** (-j))
    return acc
