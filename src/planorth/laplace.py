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
correlation of ``A_j`` with ``A_k``.  The table is one complex array, built
once per model and shared with the boundary-distribution terms, which
contract it over ``mu`` into the weighted boundary operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .geometry import SzegoData
from .hierarchy import HierarchyCoeffs

NORM_IMAG_TOL = 1e-10   # largest imaginary part the norm series may carry


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


def _ps_log(c: np.ndarray) -> np.ndarray:
    """Formal log of a power series with c[0] != 0, to the same order."""
    n = c.size
    out = np.zeros(n, dtype=np.complex128)
    out[0] = np.log(c[0])
    for k in range(1, n):
        s = 0.0 + 0.0j
        for j in range(1, k):
            s += j * out[j] * c[k - j]
        out[k] = (c[k] - s / k) / c[0]
    return out


def _ps_exp(a: np.ndarray) -> np.ndarray:
    """Formal exp of a power series, to the same order."""
    n = a.size
    out = np.zeros(n, dtype=np.complex128)
    out[0] = np.exp(a[0])
    for k in range(1, n):
        s = 0.0 + 0.0j
        for j in range(1, k + 1):
            s += j * a[j] * out[k - j]
        out[k] = s / k
    return out


def _moment_table(szego: SzegoData, coeffs: HierarchyCoeffs, order: int) -> np.ndarray:
    """``B[j, k, mu, 2S + p] = R L^mu (X_j conj(X_k) Omega)`` at mode ``p``,
    for ``j + k <= order`` and ``mu <= order`` (zero where ``j + k > order``).

    With ``A_j = X_j E`` (one circle product per ``j``, each ``X_j`` at the
    least bandwidth that holds it) and ``S`` the largest bandwidth of the
    ``A_j``, mode ``p`` of the restriction sums one diagonal ``m - n = p`` of
    the outer product ``A_j conj(A_k)``, where ``L`` multiplies by
    ``-(m+n)/2 - 1 = -(2n+p)/2 - 1``:
    ``B[j,k,mu,p] = sum_n A_j[n+p] conj(A_k[n]) (-(2n+p)/2 - 1)^mu``.
    So each row is a weighted 1-D correlation: the ``(4S+1) x (2S+1)``
    sliding window ``A_j[n+p]`` of the zero-padded ``A_j``, times the
    ``mu``-th power of the weight, contracted with ``conj(A_k)``.  No product
    is truncated, and every mode beyond ``bw(A_j) + bw(A_k)`` is exactly 0."""
    E = szego.E.trimmed().coeffs
    A = [np.convolve(x.trimmed().coeffs, E) for x in coeffs.X[:order + 1]]
    S = max((a.size - 1) // 2 for a in A)
    # padded[j, 3S + n] = A_j[n], zero for |n| > bw(A_j)
    padded = np.zeros((order + 1, 6 * S + 1), dtype=np.complex128)
    for j, a in enumerate(A):
        padded[j, 3 * S - (a.size - 1) // 2:3 * S + (a.size + 1) // 2] = a
    conjA = np.conj(padded[:, 2 * S:4 * S + 1])
    p = np.arange(-2 * S, 2 * S + 1)[:, None]
    n = np.arange(-S, S + 1)[None, :]
    weight = -(2 * n + p) / 2.0 - 1.0
    table = np.zeros((order + 1, order + 1, order + 1, 4 * S + 1), dtype=np.complex128)
    for j in range(order + 1):
        rows = conjA[:order + 1 - j]
        # window[2S + p, S + n] = A_j[n + p], one copy per j, weighted in place
        window = np.lib.stride_tricks.sliding_window_view(padded[j], 2 * S + 1).copy()
        for mu in range(order + 1):
            table[j, :order + 1 - j, mu] = rows @ window.T
            window *= weight
    return table


@dataclass(frozen=True, eq=False)
class NormExpansion:
    """Norm-constant data: ``raw[p-1] = c_p`` with
    ``N ||.||^2 = 1 + sum c_p N^-p`` and ``d[j-1] = d_j`` from the inverse
    square root (all real); ``moments`` is the table ``B[j, k, mu, 2S + p]``
    they are read from (see ``_moment_table``)."""

    d: np.ndarray
    raw: np.ndarray
    moments: np.ndarray

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
    table = _moment_table(szego, coeffs, order)
    mode0 = table[..., (table.shape[-1] - 1) // 2]
    c = np.zeros(order + 1, dtype=np.complex128)
    for j in range(order + 1):
        for k in range(order + 1 - j):
            for m in range(order + 1 - j - k):
                c[j + k + m] += mode0[j, k, m]
    if float(np.max(np.abs(c.imag))) > NORM_IMAG_TOL:
        raise ConsistencyError(
            f"norm series has imaginary part {np.max(np.abs(c.imag)):.3e}; "
            "the squared norm must be real")
    cr = c.real.copy()
    # D-series = (c-series)^(-1/2); c[0] is 1 up to roundoff and is kept as computed
    d_series = _ps_exp(-0.5 * _ps_log(cr.astype(np.complex128)))
    if float(np.max(np.abs(d_series.imag))) > NORM_IMAG_TOL:
        raise ConsistencyError("norm factor series must be real")
    return NormExpansion(d=d_series.real[1:].copy(), raw=cr[1:].copy(), moments=table)
