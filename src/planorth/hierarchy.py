"""Closed-form recursion for the expansion correction coefficients.

The corrections are boundary functions ``X_0, X_1, ...`` with ``X_0 == 1`` and
``X_j`` (for ``j >= 1``) supported on modes ``k <= -1``.  They solve a
recursive family of scalar jump problems across the unit circle driven by two
operators:

* the weighted first-order operator ``T f = (1/Omega) (z d/dz + 1)(f Omega)``
  (:func:`weighted_derivative`), and
* the projection onto modes ``k <= -1`` (:func:`~planorth.series.hardy_project`).

``solve_hierarchy`` evaluates the product form of the solution,
``solve_hierarchy_triangular`` the equivalent triangular sum; they are kept
separate purely for cross-validation.

With ``Omega = E conj(E)`` and ``E = exp(F)`` (``SzegoData``), ``T`` is the
exact identity ``T f = z df/dz + f + f z dF/dz`` for holomorphic ``f``: the
factor ``conj(E)`` is anti-holomorphic and commutes with ``z d/dz``.  So ``T``
maps Laurent series to Laurent series and the whole recursion, residuals
included, is one-dimensional convolution at the circle bandwidth ``2M``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .geometry import SzegoData
from .series import CircleSeries, circle_from_modes, hardy_project, truncate


@dataclass(frozen=True, eq=False)
class HierarchyCoeffs:
    """Solved corrections ``X[0..order]``; ``X[0]`` is the constant one and
    every later entry is tagged exterior-vanishing.  All share one bandwidth
    (that of ``F``), so :func:`neumann_partial_sum` is one weighted sum of
    their stacked coefficients."""

    order: int
    X: tuple

    def __post_init__(self):
        if len(self.X) != self.order + 1:
            raise ConsistencyError("correction list length does not match order")
        widths = {x.bandwidth for x in self.X}
        if len(widths) > 1:
            raise ConsistencyError(f"corrections differ in bandwidth: {sorted(widths)}")


def weighted_derivative(f: CircleSeries, szego: SzegoData) -> CircleSeries:
    """Apply ``T f = (1/Omega)(z d/dz + 1)(f Omega)`` to a Laurent series as
    ``z df/dz + f + f z dF/dz``, cut to the bandwidth of ``F`` (the discarded
    mass is guarded by ``TRUNC_TOL``)."""
    K, Kf = szego.F.bandwidth, f.bandwidth
    dF = szego.F.coeffs * np.arange(-K, K + 1)
    out = np.zeros(2 * (K + Kf) + 1, dtype=np.complex128)
    out[K:K + 2 * Kf + 1] = f.coeffs * np.arange(-Kf, Kf + 1) + f.coeffs
    out = out + np.convolve(f.coeffs, dF)
    return truncate(CircleSeries(out), K, "weighted derivative")


def _one(szego: SzegoData) -> CircleSeries:
    return circle_from_modes({0: 1.0}, szego.F.bandwidth)


def solve_hierarchy(szego: SzegoData, order: int) -> HierarchyCoeffs:
    """Corrections from the product form of the recursion.

    Iterates ``W -> X_p - T W``, harvesting ``X_p`` as the projection of
    ``T W`` at each step.  Projecting before the next application would
    destroy the recursion: the weighted derivative of an iterate carries
    modes of both signs.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    xs = [_one(szego)]
    W = xs[0]
    for _ in range(1, order + 1):
        A = weighted_derivative(W, szego)
        Xp = hardy_project(A)
        xs.append(Xp)
        W = Xp - A
    return HierarchyCoeffs(order=order, X=tuple(xs))


def solve_hierarchy_triangular(szego: SzegoData, order: int) -> HierarchyCoeffs:
    """Corrections from the triangular sum
    ``X_p = sum_{l<p} (-1)^{p-l+1} Q T^{p-l} X_l``; cross-validation only."""
    if order < 0:
        raise ValueError("order must be >= 0")
    xs = [_one(szego)]
    iterates = {0: [xs[0]]}  # iterates[l][i] = T^i X_l
    for p in range(1, order + 1):
        for l in range(p):
            seq = iterates[l]
            while len(seq) < p - l + 1:
                seq.append(weighted_derivative(seq[-1], szego))
        acc = None
        for l in range(p):
            term = hardy_project(iterates[l][p - l]) * ((-1.0) ** (p - l + 1))
            acc = term if acc is None else acc + term
        Xp = hardy_project(acc)
        xs.append(Xp)
        iterates[p] = [Xp]
    return HierarchyCoeffs(order=order, X=tuple(xs))


def hierarchy_residuals(coeffs: HierarchyCoeffs, szego: SzegoData, upto: int) -> list:
    """Defects of the jump conditions of orders ``p = 1..upto``, in one pass.

    Order ``p`` forms ``sum_{l<=p} (-1)^{p-l} T^{p-l} X_l`` on the circle and
    reports the largest absolute coefficient over modes ``k <= -1``; the exact
    solution leaves only modes ``k >= 0`` (the combined jump data extends
    holomorphically into the disk).  Each ``T^{p-l} X_l`` is carried to
    ``p + 1`` by one more ``T``, so ``upto (upto + 1) / 2`` applications serve
    every order.  This is not the solver's own iterate ``X_p - T W``, so it
    checks the solution independently.
    """
    if not (0 <= upto <= coeffs.order):
        raise ValueError("need 0 <= upto <= order")
    iterates = [coeffs.X[0]]          # iterates[l] = T^(p-l) X_l
    out = []
    for p in range(1, upto + 1):
        iterates = [weighted_derivative(a, szego) for a in iterates] + [coeffs.X[p]]
        total = None
        for l, a in enumerate(iterates):
            term = a * ((-1.0) ** (p - l))
            total = term if total is None else total + term
        K = total.bandwidth
        out.append(float(np.max(np.abs(total.coeffs[:K]))) if K else 0.0)
    return out


def hierarchy_residual(coeffs: HierarchyCoeffs, szego: SzegoData, p: int) -> float:
    """Defect of the order-``p`` jump condition (see :func:`hierarchy_residuals`)."""
    if not (1 <= p <= coeffs.order):
        raise ValueError("need 1 <= p <= order")
    return hierarchy_residuals(coeffs, szego, p)[-1]


def neumann_partial_sum(coeffs: HierarchyCoeffs, N: float, order: int | None = None) -> CircleSeries:
    """Partial sum ``sum_{j<=order} N^{-j} X_j`` as a circle series."""
    if N < 1:
        raise ValueError("N must be >= 1")
    order = coeffs.order if order is None else order
    if not 0 <= order <= coeffs.order:
        raise ValueError("requested order must lie in [0, solved order]")
    weights = float(N) ** -np.arange(order + 1)
    return CircleSeries(weights @ np.stack([x.coeffs for x in coeffs.X[:order + 1]]))
