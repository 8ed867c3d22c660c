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
only through the circle jet of ``g_0``.  ``(-(r d/dr)/2)^nu`` scales mode ``p
= m - n`` of a term by ``(-(m+n)/2)^nu`` and of the harmonic ``g_+``, ``g_-``
by ``(|p|/2)^nu``, so term ``t`` adds ``c_t [(-(m+n)/2)^nu - (|p_t|/2)^nu]``
at its own mode (exactly 0 for ``nu = 0`` and an exterior-harmonic term).

The weighted side of every term, the weighted boundary operator applied to
``X_j conj(X_k)``, is the model's moment array ``model.moments``
(``B[j, k, mu, mode]``, computed on the first request and kept with the
model) summed over ``mu`` with the weights ``C(nu+mu, nu) N^-mu``.  Its modes
beyond the table's bandwidth are exactly 0, so a request reads its columns at
the terms' modes ``-p_t`` within it, in one product with the per-term weights.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .expansion import ExpansionModel, _require_degree
from .series import AnnulusSeries


@dataclass(frozen=True, eq=False)
class TestFunctionSplit:
    """Exact mode split ``g = g_+ + g_- + g_0`` of the test function whose
    ``terms`` are the arrays ``(m - n, m + n, c)``.

    ``g_+`` collects the circle modes ``k <= 0`` of ``g`` as an
    exterior-holomorphic function, and ``g_-`` the modes ``k >= 1`` as a
    conjugate-holomorphic one with no constant mode, so :attr:`plus_infinity`
    ``= g_+(inf)`` (circle mode 0) is the value at infinity of the whole
    harmonic part; ``g_0`` vanishes on the circle."""

    terms: tuple

    @property
    def plus_infinity(self) -> complex:
        """Circle mode 0 of ``g``: the sum of ``c`` over the terms with ``m = n``."""
        p, _, c = self.terms
        return complex(c[p == 0].sum())


def split_terms(terms: dict) -> TestFunctionSplit:
    """The split of ``sum c z^m conj(z)^n`` given as ``{(m, n): c}``."""
    m, n = np.array(list(terms), dtype=np.int64).reshape(-1, 2).T
    return TestFunctionSplit((m - n, m + n, np.array(list(terms.values()), dtype=np.complex128)))


def split_test_function(g: AnnulusSeries) -> TestFunctionSplit:
    """The split of a test function given as a term grid."""
    return TestFunctionSplit(g.terms())


@functools.cache
def _contraction(order: int) -> tuple:
    """The arrays of :func:`_boundary_terms` at ``order >= 1``: the indices ``(nu,
    j, k)``, the column ``nu``, and per index ``nu - 1``, ``j``, ``k`` and the
    rows ``C(nu+mu, nu)`` (0 past ``order - nu``) and ``-(nu+j+k+mu)``."""
    index = tuple((nu, j, k) for nu in range(1, order + 1) for j in range(order - nu + 1)
                  for k in range(order - nu - j + 1))
    nu, j, k = np.array(index).T
    comb = np.array([[math.comb(n + mu, n) if n + mu <= order else 0 for mu in range(order)]
                     for n, _, _ in index], dtype=float)
    arrays = (np.arange(1, order + 1)[:, None], nu - 1, j, k, comb,
              -((nu + j + k)[:, None] + np.arange(order)))
    for a in arrays:
        a.setflags(write=False)   # one copy serves every request of this order
    return (index,) + arrays


def _boundary_terms(model: ExpansionModel, split: TestFunctionSplit, degrees: list,
                    order: int):
    """``(index, values)``: the indices ``(nu, j, k)`` with ``nu >= 1`` and ``nu
    + j + k <= order``, and ``values[i, t]``, :func:`distributional_terms` of
    ``index[t]`` at ``degrees[i]``, from one product of the table's columns
    with the terms' jet weights.  Raises :class:`OutOfValidityError` for a
    degree below ``N_MIN``."""
    for N in degrees:
        _require_degree(N)
    if not 0 <= order <= model.order:
        raise ValueError("requested order must lie in [0, solved order]")
    if order < 1:
        return (), np.zeros((len(degrees), 0), dtype=np.complex128)
    index, nus, v, j, k, comb, powers = _contraction(order)
    B = model.moments
    P = (B.shape[-1] - 1) // 2
    p, d, c = split.terms
    size = np.abs(p)
    near = size <= P
    p, d, c, size = p[near], d[near], c[near], size[near]
    weight = comb * np.array(degrees, dtype=float)[:, None, None] ** powers
    with np.errstate(over="ignore", invalid="ignore"):
        radial = c * ((d / -2.0) ** nus - (size / 2.0) ** nus)
        # j, k and mu never exceed order - 1 where nu >= 1: pair[j, k, mu, nu - 1]
        pair = np.matmul(B[:order, :order, :order, P - p].reshape(order ** 3, p.size), radial.T)
        return index, (pair.reshape((order,) * 4)[j, k, :, v] * weight).sum(axis=-1)


def distributional_terms(model: ExpansionModel, split: TestFunctionSplit, N: int,
                         order: int | None = None) -> list:
    """Per-index contributions ``((nu, j, k), value)`` of the boundary sum,
    already carrying their ``N^-(nu+j+k)`` factors but not the squared norm
    correction: ``N^-(nu+j+k) sum_{mu <= order-nu} C(nu+mu, nu) N^-mu
    pair[nu, j, k, mu]``, where ``pair[nu, j, k, mu] = sum_p jet[nu, p]
    B[j, k, mu, -p]`` pairs the jet of ``g_0`` with the moment table ``B``,
    read at the terms' own modes.  Raises :class:`OutOfValidityError` for a
    degree below ``N_MIN``."""
    index, values = _boundary_terms(model, split, [N], model.order if order is None else order)
    return list(zip(index, values[0].tolist()))


def distributional_expectations(model: ExpansionModel, split: TestFunctionSplit, degrees,
                                order: int | None = None) -> np.ndarray:
    """Boundary expansion of ``int G |P_N|^2 omega dA`` for each ``N`` in
    ``degrees``, from one product with the moment table.

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
    ``degrees`` and the :func:`_boundary_terms` they sum, from one pass."""
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
