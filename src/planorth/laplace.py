"""Watson-type expansion of Laplace integrals and the norm-constant expansion.

``watson_sum`` turns the jet of ``G`` at zero into the inverse-power expansion
of ``int_0^inf G(s) e^{-lambda s} ds`` with the standard remainder bound
``sup|G^(kappa+1)| / lambda^(kappa+2)``.

``norm_expansion`` applies this with ``lambda = 2N`` to the squared weighted
norm of the positioned partial sum.  Writing the radial profile of the
angular mean of ``|sum_j N^-j X_j|^2 * Omega * e^{-2s}`` at ``r = e^{-s}``,
every ``s``-derivative at 0 is a coefficient operation (the radial Euler
operator plus the explicit ``-2`` from the Jacobian factor), so the expansion
``N * ||.||^2 = 1 + sum_p c_p N^-p`` is computed exactly in the series
algebra.  The unit-norm constants ``d_j`` are the coefficients of the formal
inverse square root of that series.

``d_j`` is read off the moment table ``B[j,k][mu] = R L^mu (X_j conj(X_k) Omega)``,
``L = -(r d/dr)/2 - 1``, built once per model and shared with the
boundary-distribution terms (:func:`weighted_moments`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .geometry import SzegoData
from .hierarchy import HierarchyCoeffs
from .series import AnnulusSeries, radial_moments

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


def _conv_matrix(e: np.ndarray, n: int) -> np.ndarray:
    """Matrix of ``x -> np.convolve(e, x)`` on vectors of length ``n``."""
    T = np.zeros((e.size + n - 1, n), dtype=np.complex128)
    for j in range(n):
        T[j:j + e.size, j] = e
    return T


def weighted_moments(a: AnnulusSeries, szego: SzegoData, mu_max: int) -> list:
    """Boundary moments ``R L^mu (a Omega)`` for ``mu = 0..mu_max``, where
    ``L = -(r d/dr)/2 - 1`` and ``R`` restricts to the circle.

    ``Omega = E conj(E)`` has rank one, so ``a Omega`` is two 1-D
    convolutions of the coefficient grid: by ``E`` along ``z`` and by
    ``conj(E)`` along ``conj(z)``.  The product is kept whole, so no mass is
    dropped."""
    T = _conv_matrix(szego.E.trimmed().coeffs, a.coeffs.shape[0])
    grid = T @ a.coeffs @ T.conj().T
    return radial_moments(AnnulusSeries(grid, szego.inner_radius), 1.0, mu_max)


def _moment_table(szego: SzegoData, coeffs: HierarchyCoeffs, order: int) -> dict:
    """``B[j, k] = weighted_moments(X_j conj(X_k), szego, order)`` for ``j + k <= order``.

    At mode ``p`` this is ``sum_{m-n=p} (-(m+n)/2 - 1)^mu a_m conj(b_n)`` with
    ``a = X_j E`` and ``b = X_k E``; each ``X_j`` enters at the least
    bandwidth that holds it."""
    X = [x.trimmed() for x in coeffs.X[:order + 1]]
    table = {}
    for j in range(order + 1):
        for k in range(order + 1 - j):
            S = max(X[j].bandwidth, X[k].bandwidth)
            xj, xk = (np.pad(x.coeffs, S - x.bandwidth) for x in (X[j], X[k]))
            a = np.outer(xj, np.conj(xk))
            table[j, k] = weighted_moments(AnnulusSeries(a, szego.inner_radius), szego, order)
    return table


@dataclass(frozen=True, eq=False)
class NormExpansion:
    """Norm-constant data: ``raw[p-1] = c_p`` with
    ``N ||.||^2 = 1 + sum c_p N^-p`` and ``d[j-1] = d_j`` from the inverse
    square root (all real); ``moments[j, k][mu]`` is the table ``B`` they are
    read from."""

    d: np.ndarray
    raw: np.ndarray
    moments: dict

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
    ``B[j,k][m]`` (the ``-1`` in ``L`` carries the area Jacobian), so Watson's
    sum with ``lambda = 2N`` yields ``c_p = sum_{j+k+m=p} B[j,k][m]`` at mode 0.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > coeffs.order:
        raise ValueError("hierarchy not solved to the requested order")
    table = _moment_table(szego, coeffs, order)
    c = np.zeros(order + 1, dtype=np.complex128)
    for (j, k), moments in table.items():
        for m in range(order - j - k + 1):
            c[j + k + m] += moments[m].coeff(0)
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
