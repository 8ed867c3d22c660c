"""Hypothesis properties of the one-dimensional model over random admissible
maps (a disk with one small tail mode) and ``exp(2 Re P)`` weights, and of the
outer function over random decaying pullbacks."""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planorth as po
from planorth.series import TRUNC_TOL

from conftest import szego_of

ORDER = 4


@st.composite
def admissible_maps(draw):
    """``psi = zeta + eps zeta^-j`` with ``|eps| <= 0.12``, and an inner radius
    outside the zeros of ``psi'`` (the benchmark design's rule)."""
    j = draw(st.integers(1, 3))
    eps = cmath.rect(draw(st.floats(0.0, 0.12)), draw(st.floats(0.0, 2 * math.pi)))
    m = po.exterior_map(1.0, [0.0] * j + [eps])
    rho = max(0.7, 1.05 * (j * abs(eps)) ** (1.0 / (j + 1)) + 0.06)
    return m, rho


@st.composite
def poly_weights(draw):
    """``exp(2 Re P)`` with ``deg P = 2`` and coefficients of modulus <= 0.5."""
    coeffs = [complex(draw(st.floats(-1.0, 1.0)), 0.0)]
    for _ in range(2):
        coeffs.append(cmath.rect(draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 2 * math.pi))))
    return po.exp_re_poly_weight(coeffs)


def _model(mp, weight, M):
    m, rho = mp
    return po.build_model(m, weight, ORDER, bidegree=M, inner_radius=rho)


@given(admissible_maps(), poly_weights(), st.sampled_from([16, 24]))
def test_outer_factor_norm_series_and_residuals(mp, weight, M):
    model = _model(mp, weight, M)
    sz = model.szego
    # |E| = 1 on the circle
    ts = np.exp(2j * np.pi * (np.arange(200) + 0.5) / 200)
    assert np.max(np.abs(np.abs(sz.E.evaluate(ts)) - 1.0)) <= 1e-13
    # the norm series is real before its imaginary part is dropped
    c = np.zeros(ORDER + 1, dtype=np.complex128)
    B = model.norm.moments
    centre = (B.shape[-1] - 1) // 2
    for j in range(ORDER + 1):
        for k in range(ORDER + 1 - j):
            for mu in range(ORDER - j - k + 1):
                c[j + k + mu] += B[j, k, mu, centre]
    assert np.max(np.abs(c.imag)) <= 1e-13 * max(1.0, np.max(np.abs(c)))
    # every correction has no mode k >= 0 and every jump condition holds
    for p in range(1, ORDER + 1):
        X = model.coeffs.X[p]
        assert not X.coeffs[X.bandwidth:].any()
        assert po.hierarchy_residual(model.coeffs, sz, p) <= 1e-9


@st.composite
def decaying_pullbacks(draw):
    """Pullbacks ``h`` at bandwidth 32 whose mode ``k`` has modulus at most
    ``0.5 ratio^|k|``, ``ratio <= 0.25``, so ``E`` fits the bandwidth; mode 0
    is any moderate complex number."""
    K = 32
    ratio = draw(st.floats(0.0, 0.25))
    modes = draw(st.lists(st.complex_numbers(max_magnitude=0.5), min_size=2 * K + 1,
                          max_size=2 * K + 1))
    h = np.array(modes) * ratio ** np.abs(np.arange(-K, K + 1))
    h[K] = draw(st.complex_numbers(max_magnitude=5.0))
    return po.CircleSeries(h)


@settings(max_examples=50)
@given(decaying_pullbacks())
def test_outer_function_is_the_mode_map_of_the_pullback(h):
    sz = szego_of(h)
    K, V, F = h.bandwidth, sz.v_exterior, sz.F
    # F is purely imaginary on the circle, exactly
    assert not (F + F.conjugate_on_circle()).coeffs.any()
    # V is exterior-holomorphic and v_infinity is its mode 0
    assert not V.coeffs[K + 1:].any()
    assert sz.v_infinity == V.coeff(0)
    assert np.max(np.abs((F - (V + h)).coeffs)) <= 1e-15 * max(1.0, h.linf())


@given(admissible_maps(), st.floats(0.1, 10.0))
def test_constant_weight_norm_constants(mp, value):
    model = _model(mp, po.constant_weight(value), 16)
    assert abs(model.norm.d[0] - 0.5) <= 1e-12
    assert abs(model.norm.d[1] + 0.125) <= 1e-12


@given(st.floats(0.2, 3.0), st.floats(0.0, 2 * math.pi), st.integers(2, 10))
def test_truncation_guard_trips_on_genuine_tail(r, t, M):
    # E's mass beyond 2M, measured on a build wide enough to hold all of it
    weight = po.exp_re_linear_weight(cmath.rect(r, t))
    wide = po.build_model(po.disk_map(), weight, 1, bidegree=40, inner_radius=0.5).szego.E
    K = wide.bandwidth
    genuine = wide.l1() - float(np.sum(np.abs(wide.coeffs[K - 2 * M:K + 2 * M + 1])))
    assume(genuine > 10 * TRUNC_TOL or genuine < 0.1 * TRUNC_TOL)
    try:
        po.build_model(po.disk_map(), weight, 1, bidegree=M, inner_radius=0.5)
        tripped = False
    except po.TruncationOverflowError as exc:
        assert "stage: outer-function" in str(exc)
        tripped = True
    assert tripped == (genuine > TRUNC_TOL)
