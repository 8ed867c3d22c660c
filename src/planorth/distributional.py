"""Boundary-distribution expansion of the probability wave function.

For a smooth bounded test function the integral of ``G |P_N|^2 omega`` over
the domain collapses, as the degree grows, onto boundary distributions: the
limit is the value at infinity of the (anti)holomorphic parts of ``G``, and
the corrections are circle integrals of radial derivatives of the part of
``G`` vanishing on the boundary against weighted products of the correction
coefficients.

Test functions enter as annulus series in the exterior coordinate, for which
the smooth three-way split is an exact Fourier-mode split.

The weighted side of every term is read off the moment table
``model.norm.moments`` (built once per model), so a request only takes the
radial moments of the test function and pairs them on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import ExpansionModel, norm_factor
from .geometry import SzegoData
from .laplace import weighted_moments
from .series import (AnnulusSeries, CircleSeries, SUPPORT_EXTERIOR, SUPPORT_EXTERIOR_VANISHING,
                     conjugate_lift, lift_holomorphic, radial_moments, restrict_to_circle)


@dataclass(frozen=True, eq=False)
class TestFunctionSplit:
    """Exact mode split ``g = g_+ + g_- + g_0``.

    ``plus`` collects circle modes ``k <= 0`` (constant included) as an
    exterior-holomorphic series; ``minus_conj`` holds the conjugate of the
    conjugate-holomorphic part, i.e. ``g_-(z) = conj(minus_conj(z))``;
    ``zero`` vanishes on the circle.
    """

    plus: CircleSeries
    minus_conj: CircleSeries
    zero: AnnulusSeries
    plus_infinity: complex
    minus_infinity: complex


def split_test_function(g: AnnulusSeries) -> TestFunctionSplit:
    """Split an annulus test function into exterior-holomorphic,
    conjugate-holomorphic and circle-vanishing parts."""
    rho = g.inner_radius
    r = restrict_to_circle(g)
    K = r.bandwidth
    plus_c = r.coeffs.copy()
    plus_c[K + 1:] = 0.0
    plus = CircleSeries(plus_c, SUPPORT_EXTERIOR)
    # modes k >= 1 become conj-holomorphic: g_- = sum_{k>=1} r_k conj(z)^{-k},
    # carried as minus_conj(z) = sum_{k>=1} conj(r_k) z^{-k}
    mc = np.zeros(2 * K + 1, dtype=np.complex128)
    mc[:K] = np.conj(r.coeffs[K + 1:])[::-1]
    minus_conj = CircleSeries(mc, SUPPORT_EXTERIOR_VANISHING)
    lifted = lift_holomorphic(plus, K, rho) + conjugate_lift(minus_conj, K, rho)
    zero = g - lifted
    return TestFunctionSplit(plus=plus, minus_conj=minus_conj, zero=zero,
                             plus_infinity=plus.coeff(0),
                             minus_infinity=complex(np.conj(minus_conj.coeff(0))))


def _w_combination(moments, N: int, nu: int, order: int) -> CircleSeries:
    """``sum_{mu<=order-nu} N^-mu C(nu+mu, nu) moments[mu]``."""
    acc = moments[0]
    for mu in range(1, order - nu + 1):
        acc = acc + moments[mu] * (math.comb(nu + mu, nu) * float(N) ** (-mu))
    return acc


def w_operator(szego: SzegoData, N: int, nu: int, order: int, a: AnnulusSeries) -> CircleSeries:
    """Weighted boundary operator
    ``R sum_{mu<=order-nu} N^-mu C(nu+mu, nu) (-(r d/dr)/2 - 1)^mu (a Omega)``."""
    if not (1 <= nu <= order):
        raise ValueError("need 1 <= nu <= order")
    return _w_combination(weighted_moments(a, szego, order - nu), N, nu, order)


def _circle_mean(u: CircleSeries, v: CircleSeries) -> complex:
    """Circle integral of a product against normalized arc length: mode-0 of u*v."""
    Ku, Kv = u.bandwidth, v.bandwidth
    K = min(Ku, Kv)
    return complex(np.dot(u.coeffs[Ku - K:Ku + K + 1], v.coeffs[Kv - K:Kv + K + 1][::-1]))


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
    gs = radial_moments(split.zero, 0.0, order)
    terms = []
    for nu in range(1, order + 1):
        for j in range(order - nu + 1):
            for k in range(order - nu - j + 1):
                wk = _w_combination(model.norm.moments[j, k], N, nu, order)
                val = float(N) ** (-(nu + j + k)) * _circle_mean(gs[nu], wk)
                terms.append(((nu, j, k), complex(val)))
    return terms


def distributional_expectation(model: ExpansionModel, split: TestFunctionSplit, N: int,
                               order: int | None = None) -> complex:
    """Boundary expansion of ``int G |P_N|^2 omega dA``.

    Returns ``g_+(inf) + g_-(inf) + D_N^2 * sum over (nu, j, k) with nu >= 1,
    nu+j+k <= order`` of ``N^-(nu+j+k)`` times the circle integral of
    ``(-(r d/dr)/2)^nu g_0`` against the weighted boundary operator applied to
    ``X_j conj(X_k)``.
    """
    order = model.order if order is None else order
    total = split.plus_infinity + split.minus_infinity
    terms = distributional_terms(model, split, N, order)
    if not terms:
        return complex(total)
    D2 = norm_factor(model, N, order) ** 2
    return complex(total + D2 * sum(v for _, v in terms))
