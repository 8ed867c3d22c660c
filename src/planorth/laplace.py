"""Watson-type expansion of Laplace integrals and the norm-constant expansion.

``watson_sum`` turns the jet of ``G`` at zero into the inverse-power expansion
of ``int_0^inf G(s) e^{-lambda s} ds`` with the standard remainder bound
``sup|G^(kappa+1)| / lambda^(kappa+2)``.

``norm_expansion`` expands, in powers of ``1/N``, the squared weighted norm
of the positioned partial sum: the Laplace integral with ``lambda = 2N`` of
the angular mean of ``|sum_j N^-j X_j|^2 * Omega * e^{-2s}`` at ``r = e^{-s}``.
Every ``s``-derivative at 0 of that mean is a coefficient operation (the
radial Euler operator plus the explicit ``-2`` from the Jacobian factor), so
Watson's coefficients are read exactly off the moment table
``B[j, k, mu, p] = R L^mu (X_j conj(X_k) Omega)`` at circle mode ``p``,
``L = -(r d/dr)/2 - 1``, and ``N * ||.||^2 = 1 + sum_p c_p N^-p``.  The
unit-norm constants ``d_j`` are the coefficients of the formal inverse square
root of that series.

``Omega = E conj(E)``, so ``X_j conj(X_k) Omega = A_j conj(A_k)`` with the
1-D products ``A_j = X_j E``, and each row of the table is a weighted 1-D
correlation of ``A_j`` with ``A_k``.  The stack of the ``A_j`` is built once
per model; the norm constants read only circle mode 0 of the table, so
``norm_expansion`` computes that column alone.  The full table, which the
boundary-distribution terms contract over ``mu`` into the weighted boundary
operator, is computed by the same kernel on its first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import SzegoData
from .hierarchy import HierarchyCoeffs


@dataclass(frozen=True, eq=False)
class JetAtZero:
    """Derivatives ``G(0), G'(0), ..., G^(kappa)(0)`` plus a sup bound on the
    next derivative over ``[0, inf)``."""

    derivs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        arr = np.asarray(self.derivs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("jet must be a nonempty 1-D sequence")
        if not np.isfinite(self.tail_bound) or self.tail_bound < 0:
            raise ValueError("tail bound must be finite and nonnegative")
        object.__setattr__(self, "derivs", arr)


def watson_sum(jet: JetAtZero, lam: float) -> tuple[complex, float]:
    """Partial sum ``sum_j G^(j)(0) / lam^(j+1)`` and its remainder bound."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    js = np.arange(jet.derivs.size)
    value = complex(np.sum(jet.derivs / lam ** (js + 1)))
    bound = float(jet.tail_bound / lam ** (jet.derivs.size + 1))
    return value, bound


def _ps_power(c: np.ndarray, alpha: float) -> np.ndarray:
    """Formal power ``c^alpha`` of a real power series with ``c[0] > 0``, to
    the same order: ``b = c^alpha`` solves ``c b' = alpha c' b``, so
    ``k c_0 b_k = sum_{j=1..k} ((alpha+1) j - k) c_j b_{k-j}`` (Knuth, TAOCP
    vol. 2, 4.7)."""
    n = c.size
    out = np.zeros(n)
    out[0] = c[0] ** alpha
    for k in range(1, n):
        j = np.arange(1, k + 1)
        out[k] = np.dot(((alpha + 1) * j - k) * c[1:k + 1], out[k - 1::-1]) / (k * c[0])
    return out


def _product_stack(szego: SzegoData, coeffs: HierarchyCoeffs, order: int) -> np.ndarray:
    """``A[j, S + n] = A_j[n]`` for ``A_j = X_j E``, ``j <= order``: one circle
    product per ``j``, each ``X_j`` at the least bandwidth that holds it, all
    zero-padded to the largest bandwidth ``S`` of the ``A_j``."""
    E = szego.E.trimmed().coeffs
    A = [np.convolve(x.trimmed().coeffs, E) for x in coeffs.X[:order + 1]]
    S = max((a.size - 1) // 2 for a in A)
    stack = np.zeros((order + 1, 2 * S + 1), dtype=np.complex128)
    for j, a in enumerate(A):
        stack[j, S - (a.size - 1) // 2:S + (a.size + 1) // 2] = a
    return stack


def _moment_table(A: np.ndarray, P: int) -> np.ndarray:
    """``B[j, k, mu, P + p] = R L^mu (X_j conj(X_k) Omega)`` at circle mode
    ``p``, ``|p| <= P``, for ``j + k <= order`` and ``mu <= order`` (zero where
    ``j + k > order``), from the stack ``A`` of :func:`_product_stack`, whose
    ``order + 1`` rows hold the ``A_j``.

    Mode ``p`` of the restriction sums one diagonal ``m - n = p`` of the outer
    product ``A_j conj(A_k)``, where ``L`` multiplies by
    ``-(m+n)/2 - 1 = -(2n+p)/2 - 1``:
    ``B[j,k,mu,p] = sum_n A_j[n+p] conj(A_k[n]) (-(2n+p)/2 - 1)^mu``.
    So each row is a weighted 1-D correlation: one copy of the
    ``(2P+1) x (2S+1)`` sliding windows ``A_j[n+p]`` of every zero-padded
    ``A_j``, times the ``mu``-th power of the weight, contracted with
    ``conj(A_k)`` in one batched product per ``mu``.  No product is
    truncated, and every mode beyond ``bw(A_j) + bw(A_k)`` is exactly 0;
    ``P = 2S`` holds them all."""
    J, S = A.shape[0], (A.shape[1] - 1) // 2
    padded = np.zeros((J, 2 * (S + P) + 1), dtype=np.complex128)
    padded[:, P:P + 2 * S + 1] = A
    # window[j, P + p, S + n] = A_j[n + p], weighted in place
    window = np.lib.stride_tricks.sliding_window_view(padded, 2 * S + 1, axis=1).copy()
    p = np.arange(-P, P + 1)[:, None]
    n = np.arange(-S, S + 1)[None, :]
    weight = -(2 * n + p) / 2.0 - 1.0
    rows = np.conj(A)
    table = np.empty((J, J, J, 2 * P + 1), dtype=np.complex128)
    for mu in range(J):
        table[:, :, mu] = rows @ window.transpose(0, 2, 1)
        window *= weight
    for j in range(1, J):
        table[j, J - j:] = 0.0
    return table


@dataclass(frozen=True, eq=False)
class NormExpansion:
    """Norm-constant data: ``raw[p-1] = c_p`` with
    ``N ||.||^2 = 1 + sum c_p N^-p`` and ``d[j-1] = d_j`` from the inverse
    square root (all real), both read off circle mode 0 of the moment table;
    ``stack`` holds the products ``A_j = X_j E`` (see ``_product_stack``).
    The whole table ``moments``, ``B[j, k, mu, 2S + p]`` (see
    ``_moment_table``), is computed from the stack on first use."""

    d: np.ndarray
    raw: np.ndarray
    stack: np.ndarray

    @cached_property
    def moments(self) -> np.ndarray:
        return _moment_table(self.stack, self.stack.shape[1] - 1)

    def factor(self, N: float, order: int | None = None) -> float:
        """Truncated norm correction ``1 + sum_{j<=order} d_j N^-j``."""
        order = self.d.size if order is None else order
        if order > self.d.size:
            raise ValueError("requested order exceeds computed order")
        return float(1.0 + sum(self.d[j - 1] * float(N) ** (-j) for j in range(1, order + 1)))


def norm_expansion(szego: SzegoData, coeffs: HierarchyCoeffs, order: int) -> NormExpansion:
    """Expand the squared norm of the positioned partial sum and invert.

    The ``m``-th ``s``-derivative at the circle of the angular mean of
    ``X_j conj(X_k) Omega e^{-2s}`` is ``2^m`` times the mean of
    ``B[j, k, m]`` (the ``-1`` in ``L`` carries the area Jacobian), so Watson's
    sum with ``lambda = 2N`` yields ``c_p = sum_{j+k+m=p} B[j, k, m]`` at mode 0.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > coeffs.order:
        raise ValueError("hierarchy not solved to the requested order")
    stack = _product_stack(szego, coeffs, order)
    # n -> n + p leaves the weight -(2n+p)/2 - 1 unchanged, so
    # B[k, j, mu, -p] = conj B[j, k, mu, p] and each c_p sums real parts
    mode0 = _moment_table(stack, 0)[..., 0].real
    c = np.zeros(order + 1)
    for j in range(order + 1):
        for k in range(order + 1 - j):
            for m in range(order + 1 - j - k):
                c[j + k + m] += mode0[j, k, m]
    # D-series = (c-series)^(-1/2); c_0 = sum |E_n|^2 > 0 is 1 up to roundoff
    # and is kept as computed
    return NormExpansion(d=_ps_power(c, -0.5)[1:], raw=c[1:], stack=stack)
