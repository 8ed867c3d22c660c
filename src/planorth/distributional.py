"""Boundary-distribution expansion of the probability wave function.

For a smooth bounded test function the integral of ``G |P_N|^2 omega`` over
the domain collapses, as the degree grows, onto boundary distributions: the
limit is the value at infinity of the (anti)holomorphic parts of ``G``, and
the corrections are circle integrals of radial derivatives of the part of
``G`` vanishing on the boundary against weighted products of the correction
coefficients.

Test functions enter as annulus term grids in the exterior coordinate, for
which the smooth three-way split is an exact Fourier-mode split, and reach
the corrections only through their circle jets ``J[nu, p]``
(:func:`~planorth.series.terms_jet`).  ``g_+`` and ``g_-`` are harmonic:
``-(r d/dr)/2`` scales their mode ``p`` by ``|p|/2``, so the jet of ``g_0`` is
``J[nu, p] - (|p|/2)^nu J[0, p]``, with row 0 exactly 0.

The weighted side of every term, the weighted boundary operator applied to
``X_j conj(X_k)``, contracts the model's moment array ``model.norm.moments``
(``B[j, k, mu, mode]``, computed on the first request and kept with the model)
over ``mu`` with the weights ``C(nu+mu, nu) N^-mu``, so a request only takes
the jet of the test function and pairs its rows with those contractions on the
circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import ExpansionModel, _require_degree
from .series import AnnulusSeries, terms_jet


@dataclass(frozen=True, eq=False)
class TestFunctionSplit:
    """Exact mode split ``g = g_+ + g_- + g_0``.

    ``g_+`` collects the circle modes ``k <= 0`` of ``g`` as an
    exterior-holomorphic function, and ``g_-`` the modes ``k >= 1`` as a
    conjugate-holomorphic one with no constant mode, so ``plus_infinity =
    g_+(inf)`` (circle mode 0) is the value at infinity of the whole harmonic
    part; ``g_0`` vanishes on the circle and is read through :meth:`zero_jet`;
    ``terms`` are those of ``g`` (:meth:`~planorth.series.AnnulusSeries.terms`)
    and ``bandwidth`` is the largest circle mode ``|m - n|`` they may reach.
    """

    plus_infinity: complex
    terms: tuple
    bandwidth: int

    def zero_jet(self, order: int) -> np.ndarray:
        """The circle jet of ``g_0`` up to ``order``, at :attr:`bandwidth`."""
        K = self.bandwidth
        jet = terms_jet(self.terms, K, order)
        half = np.abs(np.arange(-K, K + 1)) / 2.0
        return jet - half ** np.arange(order + 1)[:, None] * jet[0]


def split_test_function(g: AnnulusSeries) -> TestFunctionSplit:
    """Split an annulus test function into exterior-holomorphic,
    conjugate-holomorphic and circle-vanishing parts."""
    K = 2 * g.bidegree
    return TestFunctionSplit(plus_infinity=complex(g.jet(0)[0, K]), terms=g.terms(),
                             bandwidth=K)


def _w_combination(moments: np.ndarray, N: int, nu: int, order: int) -> np.ndarray:
    """The weighted boundary operator on ``X_j conj(X_k)``, as circle modes:
    ``sum_{mu<=order-nu} N^-mu C(nu+mu, nu) moments[mu]`` with
    ``moments = model.norm.moments[j, k]`` (rows ``mu``, columns circle modes)."""
    w = [math.comb(nu + mu, nu) * float(N) ** (-mu) for mu in range(order - nu + 1)]
    return w @ moments[:order - nu + 1]


def _circle_mean(u: np.ndarray, v: np.ndarray) -> complex:
    """Circle integral of a product against normalized arc length: mode 0 of
    ``u v``, both centred arrays of circle modes."""
    Ku, Kv = (u.size - 1) // 2, (v.size - 1) // 2
    K = min(Ku, Kv)
    return complex(np.dot(u[Ku - K:Ku + K + 1], v[Kv - K:Kv + K + 1][::-1]))


def distributional_terms(model: ExpansionModel, split: TestFunctionSplit, N: int,
                         order: int | None = None) -> list:
    """Per-index contributions ``((nu, j, k), value)`` of the boundary sum,
    already carrying their ``N^-(nu+j+k)`` factors but not the squared norm
    correction."""
    order = model.order if order is None else order
    if order > model.order:
        raise ValueError("requested order exceeds the model order")
    if order < 1:
        return []
    jet = split.zero_jet(order)
    terms = []
    for nu in range(1, order + 1):
        for j in range(order - nu + 1):
            for k in range(order - nu - j + 1):
                wk = _w_combination(model.norm.moments[j, k], N, nu, order)
                val = float(N) ** (-(nu + j + k)) * _circle_mean(jet[nu], wk)
                terms.append(((nu, j, k), complex(val)))
    return terms


def distributional_expectation(model: ExpansionModel, split: TestFunctionSplit, N: int,
                               order: int | None = None) -> complex:
    """Boundary expansion of ``int G |P_N|^2 omega dA``.

    Returns ``g_+(inf) + D_N^2 * sum over (nu, j, k) with nu >= 1,
    nu+j+k <= order`` of ``N^-(nu+j+k)`` times the circle integral of
    ``(-(r d/dr)/2)^nu g_0`` against the weighted boundary operator applied to
    ``X_j conj(X_k)``; ``g_-`` has no constant mode, so it vanishes at
    infinity.  Raises :class:`OutOfValidityError` below ``N_MIN``.
    """
    _require_degree(N)
    order = model.order if order is None else order
    total = split.plus_infinity
    terms = distributional_terms(model, split, N, order)
    if not terms:
        return complex(total)
    D2 = model.norm.factor(N, order) ** 2
    return complex(total + D2 * sum(v for _, v in terms))
