"""Closed-form recursion for the expansion correction coefficients.

The corrections are boundary functions ``X_0, X_1, ...`` with ``X_0 == 1`` and
``X_j`` (for ``j >= 1``) supported on modes ``k <= -1``.  They solve a
recursive family of scalar jump problems across the unit circle driven by two
operators:

* the weighted first-order operator ``T f = (1/Omega) (z d/dz + 1)(f Omega)``
  (:func:`weighted_derivative`), and
* the projection onto modes ``k <= -1`` (:func:`~planorth.series.hardy_project`).

With ``Omega = E conj(E)`` and ``E = exp(F)`` (``SzegoData``), ``T`` is the
exact identity ``T f = z df/dz + f + f z dF/dz`` for holomorphic ``f``: the
factor ``conj(E)`` is anti-holomorphic and commutes with ``z d/dz``.  So ``T``
maps Laurent series to Laurent series at the circle bandwidth ``2M``: one
stencil over the few nonzero modes of ``F``, applied at once to a stack of
rows.  The solver and the residual check each take one stacked application
per order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SzegoData
from .series import CircleSeries, _pad_circle, _refuse_discarded


@dataclass(frozen=True, eq=False)
class HierarchyCoeffs:
    """Solved corrections ``X_0 .. X_order`` as the rows of ``stack``, the
    centred Laurent coefficients at the bandwidth of ``F``: row 0 is the
    constant one and every later row is supported on modes ``k <= -1``.  A
    weighted sum of the ``X_j`` is one weighted sum of the rows.
    ``at_origin[p-1]`` is ``W_p(0)``, the value at the origin of the solver's
    iterate ``W_p = X_p - T W_(p-1)`` (holomorphic in the disk), for
    ``p = 1..order``: the norm constants' ``c_p``
    (:func:`~planorth.laplace.norm_expansion`)."""

    stack: np.ndarray
    at_origin: np.ndarray

    @property
    def order(self) -> int:
        return self.stack.shape[0] - 1

    @property
    def X(self) -> tuple:
        """The rows of ``stack`` as circle series, built on each access."""
        return tuple(CircleSeries(x) for x in self.stack)


def _stencil(szego: SzegoData) -> tuple:
    """``(K, modes, weights)``: the bandwidth ``K`` of ``F``, the nonzero modes
    ``m`` of ``z dF/dz`` and their coefficients ``m F_m``."""
    F, K = szego.F.coeffs, szego.F.bandwidth
    modes = [int(m) for m in np.flatnonzero(F) - K if m]
    return K, modes, [m * F[K + m] for m in modes]


def _apply_T(rows: np.ndarray, stencil: tuple) -> np.ndarray:
    """``T`` on every row of ``rows`` (a stack of Laurent coefficients at one
    bandwidth ``B``, at least the bandwidth ``K`` of ``F``), cut to ``K``.

    ``T f = z df/dz + f + f z dF/dz`` is a stencil over the nonzero modes of
    ``z dF/dz`` (:func:`_stencil`): mode ``k`` of a row is ``(k + 1) f_k`` plus
    ``m F_m f_(k-m)`` for each nonzero ``F_m``.  Raises
    :class:`TruncationOverflowError` when a row's mass beyond ``K`` exceeds
    ``TRUNC_TOL``."""
    K, modes, weights = stencil
    B = (rows.shape[1] - 1) // 2
    S = max(map(abs, modes), default=0)
    out = np.zeros((rows.shape[0], 2 * (B + S) + 1), dtype=np.complex128)
    np.multiply(rows, np.arange(1 - B, B + 2), out=out[:, S:S + 2 * B + 1])
    for m, w in zip(modes, weights):
        out[:, S + m:S + m + 2 * B + 1] += w * rows
    cut = B + S - K
    if cut:
        discarded = np.abs(out[:, :cut]).sum(axis=1) + np.abs(out[:, -cut:]).sum(axis=1)
        _refuse_discarded(float(discarded.max()), K, "weighted derivative")
    return out[:, cut:cut + 2 * K + 1]


def weighted_derivative(f: CircleSeries, szego: SzegoData) -> CircleSeries:
    """Apply ``T f = (1/Omega)(z d/dz + 1)(f Omega)`` to a Laurent series as
    ``z df/dz + f + f z dF/dz``, cut to the bandwidth of ``F`` (the discarded
    mass is guarded by ``TRUNC_TOL``)."""
    rows = _pad_circle(f, max(f.bandwidth, szego.F.bandwidth))[None]
    return CircleSeries(_apply_T(rows, _stencil(szego))[0])


def solve_hierarchy(szego: SzegoData, order: int) -> HierarchyCoeffs:
    """Corrections from the product form of the recursion.

    Iterates ``W -> X_p - T W``, harvesting ``X_p`` as the projection of
    ``T W`` at each step and keeping ``W_p(0)``, its mode 0.  Projecting
    before the next application would destroy the recursion: the weighted
    derivative of an iterate carries modes of both signs.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    stencil = _stencil(szego)
    K = stencil[0]
    stack = np.zeros((order + 1, 2 * K + 1), dtype=np.complex128)
    stack[0, K] = 1.0
    at_origin = np.zeros(order)
    W = stack[:1]
    for p in range(1, order + 1):
        A = _apply_T(W, stencil)
        stack[p, :K] = A[0, :K]  # X_p: the projection of T W onto modes k <= -1
        W = -A                  # X_p - T W: zero on modes k <= -1
        W[:, :K] = 0.0
        at_origin[p - 1] = W[0, K].real
    stack.setflags(write=False)
    at_origin.setflags(write=False)
    return HierarchyCoeffs(stack, at_origin)


def hierarchy_residuals(coeffs: HierarchyCoeffs, szego: SzegoData, upto: int) -> list:
    """Defects of the jump conditions of orders ``p = 1..upto``, in one pass.

    Order ``p`` forms ``sum_{l<=p} (-1)^{p-l} T^{p-l} X_l`` on the circle and
    reports the largest absolute coefficient over modes ``k <= -1``; the exact
    solution leaves only modes ``k >= 0`` (the combined jump data extends
    holomorphically into the disk).  The iterates ``T^{p-l} X_l`` are the rows
    of one stack, carried to ``p + 1`` by one stacked application of ``T``, so
    ``upto`` passes serve every order.  This is not the solver's own iterate
    ``X_p - T W``, so it checks the solution independently.
    """
    if not (0 <= upto <= coeffs.order):
        raise ValueError("need 0 <= upto <= order")
    stencil, X = _stencil(szego), coeffs.stack
    K = stencil[0]
    terms = X[:1]             # row l is (-1)^(p-l) T^(p-l) X_l
    out = []
    for p in range(1, upto + 1):
        terms = np.concatenate([-_apply_T(terms, stencil), X[p:p + 1]])
        total = terms.sum(axis=0)
        out.append(float(np.abs(total[:K]).max()) if K else 0.0)
    return out


def hierarchy_residual(coeffs: HierarchyCoeffs, szego: SzegoData, p: int) -> float:
    """Defect of the order-``p`` jump condition (see :func:`hierarchy_residuals`)."""
    if not (1 <= p <= coeffs.order):
        raise ValueError("need 1 <= p <= order")
    return hierarchy_residuals(coeffs, szego, p)[-1]

