"""Boundary-distribution expansion of the probability wave function.

For a smooth bounded test function the integral of ``G |P_N|^2 omega`` over
the domain collapses, as the degree grows, onto boundary distributions: the
limit is the value at infinity of the (anti)holomorphic parts of ``G``, and
the corrections are circle integrals of radial derivatives of the part of
``G`` vanishing on the boundary against weighted products of the correction
coefficients.

A test function ``g = sum c z^m conj(z)^n`` in the exterior coordinate is
its terms, the arrays ``(m - n, m + n, c)``; for these the smooth three-way
split is an exact Fourier-mode split, and the terms reach the corrections
only through their circle jets ``J[nu, p]`` (:func:`~planorth.series.terms_jet`).
``g_+`` and ``g_-`` are harmonic: ``-(r d/dr)/2`` scales their mode ``p`` by
``|p|/2``, so the jet of ``g_0`` is ``J[nu, p] - (|p|/2)^nu J[0, p]``, with
row 0 exactly 0.

The weighted side of every term, the weighted boundary operator applied to
``X_j conj(X_k)``, is the model's moment array ``model.moments``
(``B[j, k, mu, mode]``, computed on the first request and kept with the
model) summed over ``mu`` with the weights ``C(nu+mu, nu) N^-mu``.  Its modes
beyond the table's bandwidth are exactly 0, so a request takes the jet of
``g_0`` at that bandwidth and pairs it with the table in one contraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .expansion import ExpansionModel, _require_degree
from .series import AnnulusSeries, terms_jet


@dataclass(frozen=True, eq=False)
class TestFunctionSplit:
    """Exact mode split ``g = g_+ + g_- + g_0`` of the test function whose
    ``terms`` are the arrays ``(m - n, m + n, c)``.

    ``g_+`` collects the circle modes ``k <= 0`` of ``g`` as an
    exterior-holomorphic function, and ``g_-`` the modes ``k >= 1`` as a
    conjugate-holomorphic one with no constant mode, so :attr:`plus_infinity`
    ``= g_+(inf)`` (circle mode 0) is the value at infinity of the whole
    harmonic part; ``g_0`` vanishes on the circle and is read through
    :meth:`zero_jet`.
    """

    terms: tuple

    @property
    def plus_infinity(self) -> complex:
        """Circle mode 0 of ``g``: the sum of ``c`` over the terms with ``m = n``."""
        p, _, c = self.terms
        return complex(np.sum(c[p == 0]))

    def zero_jet(self, order: int, K: int) -> np.ndarray:
        """The circle jet of ``g_0`` up to ``order`` at bandwidth ``K``, from the
        terms with ``|m - n| <= K``."""
        p, d, c = self.terms
        near = np.abs(p) <= K
        jet = terms_jet((p[near], d[near], c[near]), K, order)
        half = np.abs(np.arange(-K, K + 1)) / 2.0
        return jet - half ** np.arange(order + 1)[:, None] * jet[0]


def split_terms(terms: dict) -> TestFunctionSplit:
    """The split of ``sum c z^m conj(z)^n`` given as ``{(m, n): c}``."""
    m, n = np.array(list(terms), dtype=np.int64).reshape(-1, 2).T
    return TestFunctionSplit((m - n, m + n, np.array(list(terms.values()), dtype=np.complex128)))


def split_test_function(g: AnnulusSeries) -> TestFunctionSplit:
    """The split of a test function given as a term grid."""
    return TestFunctionSplit(g.terms())


def _boundary_terms(model: ExpansionModel, split: TestFunctionSplit, degrees: list,
                    order: int):
    """``(index, values)``: the indices ``(nu, j, k)`` of the terms with
    ``nu >= 1`` and ``nu + j + k <= order``, in the order of
    :func:`distributional_terms`, and ``values[i, t]``, the contribution of
    ``index[t]`` at degree ``degrees[i]``: ``sum_mu weight[i, t, mu]
    pair[nu, j, k, mu]`` with ``weight = C(nu+mu, nu) N^-(nu+j+k+mu)`` for
    ``mu <= order - nu`` and 0 beyond, from one contraction of the jet of
    ``g_0`` with the moment table and one product with that weight.  Raises
    :class:`OutOfValidityError` for a degree below ``N_MIN``."""
    for N in degrees:
        _require_degree(N)
    if not 0 <= order <= model.order:
        raise ValueError("requested order must lie in [0, solved order]")
    index = [(nu, j, k) for nu in range(1, order + 1) for j in range(order - nu + 1)
             for k in range(order - nu - j + 1)]
    if order < 1:
        return index, np.zeros((len(degrees), 0), dtype=np.complex128)
    B = model.moments
    nu, j, k = np.array(index).T
    # comb[nu - 1, mu] = C(nu+mu, nu) for mu <= order - nu, else 0
    comb = np.array([[math.comb(n + mu, n) if n + mu <= order else 0 for mu in range(order)]
                     for n in range(1, order + 1)], dtype=float)
    Ns = np.array(degrees, dtype=float)[:, None, None]
    weight = comb[nu - 1] * Ns ** -((nu + j + k)[:, None] + np.arange(order))
    with np.errstate(over="ignore", invalid="ignore"):
        jet = split.zero_jet(order, (B.shape[-1] - 1) // 2)
        # j, k and mu never exceed order - 1 where nu >= 1
        pair = np.einsum("vp,jkmp->vjkm", jet[1:, ::-1], B[:order, :order, :order])
        return index, (pair[nu - 1, j, k] * weight).sum(axis=-1)


def distributional_terms(model: ExpansionModel, split: TestFunctionSplit, N: int,
                         order: int | None = None) -> list:
    """Per-index contributions ``((nu, j, k), value)`` of the boundary sum,
    already carrying their ``N^-(nu+j+k)`` factors but not the squared norm
    correction: ``N^-(nu+j+k) sum_{mu <= order-nu} C(nu+mu, nu) N^-mu
    pair[nu, j, k, mu]``, where ``pair[nu, j, k, mu] = sum_p jet[nu, p]
    B[j, k, mu, -p]`` pairs the jet of ``g_0`` with the moment table ``B`` at
    the table's bandwidth.  Raises :class:`OutOfValidityError` for a degree
    below ``N_MIN``."""
    index, values = _boundary_terms(model, split, [N], model.order if order is None else order)
    return list(zip(index, values[0].tolist()))


def distributional_expectations(model: ExpansionModel, split: TestFunctionSplit, degrees,
                                order: int | None = None) -> np.ndarray:
    """Boundary expansion of ``int G |P_N|^2 omega dA`` for each ``N`` in
    ``degrees``, from one contraction of the jet with the moment table.

    Returns ``g_+(inf) + D_N^2 * sum over (nu, j, k) with nu >= 1,
    nu+j+k <= order`` of ``N^-(nu+j+k)`` times the circle integral of
    ``(-(r d/dr)/2)^nu g_0`` against the weighted boundary operator applied to
    ``X_j conj(X_k)``; ``g_-`` has no constant mode, so it vanishes at
    infinity.  Raises :class:`OutOfValidityError` for a degree below ``N_MIN``
    and :class:`NonFiniteError`, naming the first such degree, where the sum
    leaves the float range.
    """
    return _expectations(model, split, list(degrees), order)[0]


def _expectations(model: ExpansionModel, split: TestFunctionSplit, degrees: list,
                  order: int | None):
    """``(expectations, index, values)``: :func:`distributional_expectations` at
    ``degrees`` and the ``(index, values)`` of :func:`_boundary_terms` they sum,
    from one pass; row ``i`` of ``values`` is :func:`distributional_terms` at
    ``degrees[i]``."""
    order = model.order if order is None else order
    out = np.empty(len(degrees), dtype=np.complex128)
    index, values = _boundary_terms(model, split, degrees, order)
    for i, (N, row) in enumerate(zip(degrees, values.tolist())):
        with np.errstate(over="ignore", invalid="ignore"):
            total = split.plus_infinity + model.norm.factor(N, order) ** 2 * sum(row)
        if not cmath.isfinite(total):
            raise NonFiniteError(f"boundary expansion of the test function out of float "
                                 f"range at degree {N}")
        out[i] = total
    return out, index, values


def distributional_expectation(model: ExpansionModel, split: TestFunctionSplit, N: int,
                               order: int | None = None) -> complex:
    """:func:`distributional_expectations` at the one degree ``N``."""
    return complex(distributional_expectations(model, split, [N], order)[0])
