"""Hypothesis properties of the one-dimensional model over random admissible
maps (a disk with one small tail mode) and ``exp(2 Re P)`` weights, of the
outer function over random decaying pullbacks, and of the norm-constant
algebra (the moment table's symmetry and the power-series inverse square
root) over random inputs, of the Newton inversion over random Joukowski
maps and maps with longer tails, and of the boundary oracle on those maps
anywhere in the plane."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planorth as po
from planorth.geometry import ExteriorMap, map_forward_many
from planorth.laplace import _moment_table, _ps_power
from planorth.series import TRUNC_TOL

from conftest import conjugate_on_circle, szego_of

ORDER = 4


@st.composite
def admissible_maps(draw):
    """``psi = zeta + eps zeta^-j`` with ``|eps| <= 0.12``, and an inner radius
    outside the zeros of ``psi'`` (the benchmark design's rule)."""
    j = draw(st.integers(1, 3))
    eps = cmath.rect(draw(st.floats(0.0, 0.12)), draw(st.floats(0.0, 2 * math.pi)))
    m = ExteriorMap(1.0, [0.0] * j + [eps])
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
    B = model.moments
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
    assert not (F + conjugate_on_circle(F)).coeffs.any()
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


@st.composite
def real_power_series(draw):
    """Real ``c`` of length at most 9 with ``c_0`` in ``[0.5, 2]`` and
    ``|c_j| <= c_0 / 2``."""
    c0 = draw(st.floats(0.5, 2.0))
    rest = draw(st.lists(st.floats(-0.5, 0.5), max_size=8))
    return np.array([c0] + [c0 * x for x in rest])


@settings(max_examples=50)
@given(real_power_series())
def test_inverse_square_root_series(c):
    # d = c^(-1/2) as a power series: d^2 c = 1 + O(x^n)
    n = c.size
    d = _ps_power(c, -0.5)
    prod = np.convolve(np.convolve(d, d)[:n], c)[:n]
    assert np.max(np.abs(prod - np.eye(1, n)[0])) <= 1e-13


@st.composite
def product_stacks(draw):
    """A random complex stack ``A`` of ``J <= 4`` rows at bandwidth ``S <= 6``
    and a mode range ``P <= 2S``."""
    J, S = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((J, 2 * S + 1)) + 1j * rng.standard_normal((J, 2 * S + 1))
    return A, draw(st.integers(0, 2 * S))


@settings(max_examples=50)
@given(product_stacks())
def test_moment_table_is_hermitian(stack):
    # B[k, j, mu, P - p] = conj B[j, k, mu, P + p]: n -> n + p leaves the
    # weight -(2n+p)/2 - 1 unchanged, so circle mode 0 of the norm series is real
    A, P = stack
    B = _moment_table(A, P)
    flipped = np.conj(B.transpose(1, 0, 2, 3)[..., ::-1])
    assert np.max(np.abs(B - flipped)) <= 1e-13 * np.max(np.abs(B))


def _exterior_points(rng, inner, n=64):
    """``n`` points ``zeta`` with ``inner <= |zeta| <= 4`` at random angles."""
    return rng.uniform(inner, 4.0, n) * np.exp(2j * np.pi * rng.random(n))


@st.composite
def joukowski_maps(draw):
    """``psi = cap zeta + a_0 + a_1 / zeta`` with ``cap`` in [0.5, 2],
    ``|Re a_0|, |Im a_0| <= 2`` and ``|a_1| <= 0.9 cap``."""
    cap = draw(st.floats(0.5, 2.0))
    a0 = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    a1 = cmath.rect(cap * draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 2 * math.pi)))
    return ExteriorMap(cap, [a0, a1])


@settings(max_examples=50)
@given(joukowski_maps(), st.integers(0, 2 ** 32 - 1))
def test_joukowski_maps_invert_in_one_evaluation(m, seed):
    # the seed is the exact exterior root, so the first residual test passes
    zeta = _exterior_points(np.random.default_rng(seed), m.univalence_margin + 0.02)
    calls = []
    original = ExteriorMap.psi_and_prime

    def counted(self, pts):
        calls.append(np.size(pts))
        return original(self, pts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExteriorMap, "psi_and_prime", counted)
        got, ok = map_forward_many(m, m.psi(zeta))
    assert ok.all() and calls == [zeta.size]
    assert np.max(np.abs(got - zeta) / np.abs(zeta)) <= 1e-13


@st.composite
def higher_tail_maps(draw):
    """``psi = cap zeta + sum_j a_j zeta^-j`` with a tail of degree 2 or 3 and
    ``sum_j j |a_j| <= cap / 2``."""
    cap = draw(st.floats(0.5, 2.0))
    d = draw(st.integers(2, 3))
    a0 = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    shares = np.array([draw(st.floats(0.0, 1.0)) for _ in range(d)])
    shares[-1] = max(shares[-1], 0.05)        # the tail really has degree d
    shares *= draw(st.floats(0.1, 1.0)) / shares.sum()
    tail = [a0] + [cmath.rect(cap / 2 * s / j, draw(st.floats(0.0, 2 * math.pi)))
                   for j, s in enumerate(shares, start=1)]
    return ExteriorMap(cap, tail)


@settings(max_examples=50)
@given(higher_tail_maps(), st.integers(0, 2 ** 32 - 1))
def test_higher_tail_maps_invert_every_point(m, seed):
    # sum_j j |a_j| <= cap / 2 makes psi univalent on |zeta| >= 1; just above
    # the margin a few maps in 10^4 have a second preimage below it, which
    # Newton can reach from the unit-circle fallback
    zeta = _exterior_points(np.random.default_rng(seed), 1.0)
    got, ok = map_forward_many(m, m.psi(zeta))
    assert ok.all() and np.max(np.abs(got - zeta) / np.abs(zeta)) <= 1e-10


@given(higher_tail_maps(), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
def test_boundary_oracle_serves_any_centre(m, size, angle):
    # P = alpha z: neither the degree-64 oracle of the map centred at a_0 =
    # tail[0] (up to 2 + 2i) nor that of the same map at 0 is refused, and as
    # |e^(alpha z)|^2 = |e^(alpha a_0)|^2 |e^(alpha (z - a_0))|^2, the first's
    # log kappa_n is the second's less Re(alpha a_0)
    alpha = cmath.rect(size / m.cap, angle)
    P, a0 = np.array([0.0, alpha]), m.tail[0]
    polys = po.boundary_onps(m, P, 64)
    centred = po.boundary_onps(ExteriorMap(m.cap, [0.0, *m.tail[1:]]), P, 64)
    shift = (alpha * a0).real
    assert np.max(np.abs(polys.log_kappa + shift - centred.log_kappa)) <= 1e-12
