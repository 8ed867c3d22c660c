"""Watson-type expansion of Laplace integrals and the norm-constant expansion.

``watson_sum`` turns the jet of ``G`` at zero into the inverse-power expansion
of ``int_0^inf G(s) e^{-lambda s} ds`` with the standard remainder bound
``sup|G^(kappa+1)| / lambda^(kappa+2)``.

``norm_expansion`` expands the squared weighted norm of the positioned
partial sum ``S = sum_j N^-j X_j`` in powers of ``1/N``,
``N ||S||^2 = 1 + sum_p c_p N^-p``, and takes the formal inverse square root
for the unit-norm constants ``d_j``.  ``c_0 = 1`` (``X_0 = 1``, ``|E| = 1`` on
the circle) and ``c_p = W_p(0)``, read off the solver
(``HierarchyCoeffs.at_origin``): ``S`` is orthogonal to all below its leading
term, and each Watson derivative of its pairing with that term applies one
more ``T``, so ``c_p = sum_{m+j=p} (-1)^m [T^m X_j]_0 = W_p(0)``.

The boundary-distribution terms contract over ``mu`` the moment table
``B[j, k, mu, p] = R L^mu (X_j conj(X_k) Omega)`` at circle mode ``p``,
``L = -(r d/dr)/2 - 1``.  ``Omega = E conj(E)``, so
``X_j conj(X_k) Omega = A_j conj(A_k)`` with ``A_j = X_j E``, and each row of
the table is a weighted 1-D correlation of ``A_j`` with ``A_k``.  The model
(:class:`~planorth.expansion.ExpansionModel`) builds the stack of the ``A_j``
and the table from its own ``szego`` and ``coeffs``, each on its first use.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """``A[j, S + n] = A_j[n]`` for ``A_j = X_j E``, ``j <= order``.  No
    ``X_j`` has a mode ``k >= 1``, so the rows are cut once, to the deepest
    nonzero mode ``D`` of any of them, and each is one circle product with
    ``E``, all at the bandwidth ``S = D + bw(E)``."""
    X = coeffs.stack[:order + 1]
    K = (X.shape[1] - 1) // 2
    D = K - int(np.flatnonzero(X.any(axis=0))[0])   # X_0 = 1 is nonzero at mode 0
    E = szego.E.trimmed().coeffs
    return np.array([np.convolve(x, E) for x in X[:, K - D:K + D + 1]])


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
    ``P = 2S`` holds them all.  Watson's sum ``sum_{j+k+m=p} B[j, k, m]`` at
    mode 0 is ``c_p`` once more, by the area integral rather than the
    solver's ``W_p(0)`` (the pairing identity of the module docstring)."""
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
    square root (all real)."""

    d: np.ndarray
    raw: np.ndarray

    def factor(self, N: float, order: int | None = None) -> float:
        """Truncated norm correction ``1 + sum_{j<=order} d_j N^-j``."""
        order = self.d.size if order is None else order
        if not 0 <= order <= self.d.size:
            raise ValueError("requested order must lie in [0, solved order]")
        return float(1.0 + sum(self.d[j - 1] * float(N) ** (-j) for j in range(1, order + 1)))


def norm_expansion(szego: SzegoData, coeffs: HierarchyCoeffs, order: int) -> NormExpansion:
    """Expand the squared norm of the positioned partial sum and invert.

    ``c_0 = 1`` and ``c_p = W_p(0)`` from the solver (``coeffs.at_origin``):
    each Watson derivative of the norm applies one more ``T`` to the leading
    term's pairing.  ``d`` is the ``-1/2`` power of that series.  ``szego`` is
    not read: the products ``A_j = X_j E`` belong to the model
    (:attr:`~planorth.expansion.ExpansionModel.products`).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > coeffs.order:
        raise ValueError("hierarchy not solved to the requested order")
    c = np.array([1.0, *coeffs.at_origin[:order]])
    return NormExpansion(d=_ps_power(c, -0.5)[1:], raw=c[1:])
