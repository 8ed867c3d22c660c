import math
import re

import numpy as np
import pytest

import planorth as po
from planorth.errors import DomainError, TruncationOverflowError
from planorth.hierarchy import weighted_derivative
from planorth.series import EVAL_CHUNK, SUPPORT_EXTERIOR, SUPPORT_EXTERIOR_VANISHING

from conftest import grid_restrictions, random_annulus, random_circle

RHO = 0.7


def test_multiply_monomials():
    # circle products convolve modes; structural zeros stay exactly zero
    p = po.circle_from_modes({1: 1.0}, 4) * po.circle_from_modes({-1: 1.0}, 4)
    assert p.coeff(0) == 1.0
    assert np.count_nonzero(p.coeffs) == 1


def test_multiply_identity():
    rng = np.random.default_rng(7)
    b = random_circle(rng, 5)
    p = po.circle_from_modes({0: 1.0}, 5) * b
    assert np.max(np.abs(p.coeffs[5:16] - b.coeffs)) == 0.0


def test_multiply_pointwise_oracle():
    rng = np.random.default_rng(11)
    a = random_circle(rng, 8, scale=0.3)
    b = random_circle(rng, 8, scale=0.3)
    p = a * b
    zs = 1.05 * np.exp(2j * np.pi * np.arange(32) / 32)
    lhs = p.evaluate(zs)
    rhs = a.evaluate(zs) * b.evaluate(zs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_multiply_truncation_overflow():
    a = po.circle_from_modes({3: 1.0}, 4)
    with pytest.raises(TruncationOverflowError, match="beyond bandwidth 4"):
        po.truncate(a * a, 4, "z^6")
    # mass below TRUNC_TOL is cut silently; a narrower series is zero-padded
    cut = po.truncate(po.circle_from_modes({0: 1.0, 6: 1e-15}, 6), 4, "tail")
    assert cut.bandwidth == 4 and cut.coeff(0) == 1.0 and cut.l1() == 1.0
    assert po.truncate(a, 6, "pad").coeff(3) == 1.0


def test_exp_zero():
    e = po.circle_exp(po.circle_zeros(6))
    assert e.coeff(0) == 1.0
    assert e.l1() == 1.0


def test_exp_taylor_coefficients():
    alpha = 0.3
    e = po.circle_exp(po.circle_from_modes({1: alpha}, 12))
    for k in range(12):
        assert abs(e.coeff(k) - alpha ** k / math.factorial(k)) < 1e-15


def test_exp_scalar_evaluation_oracle():
    f = po.circle_from_modes({1: 0.2, -1: -0.2, 2: 0.1j, -3: 0.05}, 30)
    e = po.circle_exp(f)
    zs = np.concatenate([r * np.exp(2j * np.pi * np.arange(16) / 16) for r in (0.8, 1.0, 1.2)])
    want = np.exp(f.evaluate(zs))
    assert np.max(np.abs(e.evaluate(zs) - want)) <= 1e-12 * np.max(np.abs(want))


def test_exp_norm_limit():
    # an exponential too wide for its bandwidth is refused, not wrapped around
    with pytest.raises(TruncationOverflowError, match="beyond bandwidth 4"):
        po.circle_exp(po.circle_from_modes({1: 100.0}, 4))


def test_exp_tail_is_measured():
    # the reported tail is the true mass beyond the bandwidth, not a bound
    alpha, K = 0.3, 8
    with pytest.raises(TruncationOverflowError) as info:
        po.circle_exp(po.circle_from_modes({1: alpha}, K))
    reported = float(re.search(r"mass ([0-9.e+-]+)", str(info.value)).group(1))
    exact = sum(alpha ** k / math.factorial(k) for k in range(K + 1, 40))
    assert abs(reported / exact - 1.0) < 1e-3


def test_wirtinger_and_radial():
    # z d/dz multiplies mode k by k: with a flat weight T z^k = (k + 1) z^k
    sz = po.szego(po.pullback_weight(po.disk_map(), po.constant_weight(), 4, RHO))
    t = weighted_derivative(po.circle_from_modes({2: 1.0, -3: 1.0}, 8), sz)
    assert t.coeff(2) == 3.0 and t.coeff(-3) == -2.0 and t.l1() == 5.0
    # r d/dr multiplies c[m, n] by m + n; the jet's column 2M + p holds mode p
    jet = po.annulus_from_terms({(2, 1): 1.0}, 4, RHO).jet(2)
    assert list(jet[:, 8 + 1]) == [1.0, -1.5, 2.25]
    assert not np.any(po.annulus_from_terms({(0, 0): 3.0}, 4, RHO).jet(1)[1])


def test_restrict_modes():
    assert po.annulus_from_terms({(1, 1): 1.0}, 4, RHO).jet(0)[0, 8] == 1.0
    assert po.annulus_from_terms({(2, 1): 1.0}, 4, RHO).jet(0)[0, 8 + 1] == 1.0


def test_restrict_pointwise_oracle():
    rng = np.random.default_rng(3)
    a = random_annulus(rng, 8, RHO)
    c = po.CircleSeries(a.jet(0)[0])
    ts = np.exp(2j * np.pi * np.arange(64) / 64)
    l1 = float(np.sum(np.abs(a.coeffs)))
    assert np.max(np.abs(a.evaluate(ts) - c.evaluate(ts))) <= 1e-12 * max(1.0, l1)


def test_terms_list_the_nonzero_grid_entries():
    a = po.annulus_from_terms({(2, -1): 0.5, (-1, 0): 2.0 - 1.0j, (0, 0): 0.0}, 2, RHO)
    modes, degrees, c = a.terms()
    # grid order: m ascending, then n
    assert list(modes) == [-1, 3] and list(degrees) == [-1, 1]
    assert list(c) == [2.0 - 1.0j, 0.5]


def test_hardy_mode_selection():
    c = po.circle_from_modes({0: 3.0, -1: 2.0, 1: 5.0}, 4)
    h = po.hardy_project(c)
    assert h.coeff(-1) == 2.0 and h.coeff(0) == 0.0 and h.coeff(1) == 0.0
    assert h.support == SUPPORT_EXTERIOR_VANISHING


def test_hardy_idempotent_and_contractive():
    rng = np.random.default_rng(5)
    c = random_circle(rng, 10)
    h = po.hardy_project(c)
    h2 = po.hardy_project(h)
    assert np.max(np.abs(h.coeffs - h2.coeffs)) == 0.0
    assert h.l2() <= c.l2()


def test_hardy_on_first_correction_block():
    alpha = 0.3 + 0.1j
    c = po.circle_from_modes({1: alpha, -1: np.conj(alpha)}, 4)
    h = po.hardy_project(c)
    assert h.coeff(-1) == np.conj(alpha)
    assert h.l2() == abs(alpha)


def test_herglotz_constant_and_cosine():
    one = po.circle_from_modes({0: 1.0}, 4)
    assert po.herglotz(one).coeff(0) == 1.0
    u = po.circle_from_modes({1: 0.5, -1: 0.5}, 4)
    h = po.herglotz(u)
    assert h.coeff(-1) == 1.0 and h.coeff(0) == 0.0 and h.coeff(1) == 0.0
    ts = np.exp(1j * np.linspace(0, 6, 9))
    assert np.max(np.abs(np.real(h.evaluate(ts)) - np.cos(np.angle(ts)))) < 1e-14


def test_herglotz_contour_quadrature_oracle():
    rng = np.random.default_rng(17)
    half = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    modes = {0: rng.standard_normal()}
    for k, v in enumerate(half, start=1):
        modes[k] = v
        modes[-k] = np.conj(v)
    u = po.circle_from_modes(modes, 16)
    h = po.herglotz(u)
    n = 512
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    z = 2.0
    quad = np.mean((z + zeta) / (z - zeta) * u.evaluate(zeta))
    assert abs(h.evaluate(z) - quad) <= 1e-10


def test_herglotz_rejects_non_real():
    c = po.circle_from_modes({1: 1.0}, 4)
    with pytest.raises(DomainError):
        po.herglotz(c)


def test_restrict_of_product_is_circle_convolution(disk_alpha_model):
    # the moment table's mu = 0 row restricts X_j conj(X_k) Omega, which on
    # the circle is the product of X_j E and the conjugate of X_k E
    sz, X = disk_alpha_model.szego, disk_alpha_model.coeffs.X
    order = disk_alpha_model.order
    for j in range(order + 1):
        for k in range(order + 1 - j):
            lhs = po.CircleSeries(disk_alpha_model.norm.moments[j, k, 0])
            rhs = (X[j] * sz.E) * (X[k] * sz.E).conjugate_on_circle()
            assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-12 * max(1.0, lhs.l1()), (j, k)


def test_herglotz_real_part_reproduces_input():
    rng = np.random.default_rng(29)
    half = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    modes = {0: 1.3}
    for k, v in enumerate(half, start=1):
        modes[k] = v
        modes[-k] = np.conj(v)
    u = po.circle_from_modes(modes, 8)
    h = po.herglotz(u)
    re_h = 0.5 * (h + h.conjugate_on_circle())
    assert np.max(np.abs((re_h - u).coeffs)) < 1e-14


def test_exp_inverse_on_circle():
    f = po.circle_from_modes({1: 0.3, -1: -0.3, 2: 0.1j, -2: 0.1j}, 24)  # imaginary on |z| = 1
    e = po.circle_exp(f)
    e_inv = po.circle_exp(-f)
    ts = np.exp(2j * np.pi * np.arange(40) / 40)
    assert np.max(np.abs((e * e_inv).evaluate(ts) - 1.0)) <= 1e-13
    assert np.max(np.abs((e * e.conjugate_on_circle()).evaluate(ts) - 1.0)) <= 1e-13


def test_real_tag_invariant():
    # c[n, m] = conj(c[m, n]) makes the sum real-valued
    a = po.annulus_from_terms({(1, 0): 0.4 + 0.2j, (0, 1): 0.4 - 0.2j}, 4, RHO)
    assert np.array_equal(a.coeffs.T, np.conj(a.coeffs))
    ts = 0.9 * np.exp(1j * np.linspace(0, 6, 7))
    assert np.max(np.abs(np.imag(a.evaluate(ts)))) < 1e-15
    one_sided = po.annulus_from_terms({(1, 0): 1.0}, 4, RHO)
    assert np.max(np.abs(np.imag(one_sided.evaluate(ts)))) > 0.1


def test_annulus_evaluation_matches_coefficientwise():
    rng = np.random.default_rng(31)
    a = random_annulus(rng, 5, RHO)
    z = 1.02 * np.exp(0.3j)
    direct = sum(a.coeffs[5 + m, 5 + n] * z ** m * np.conj(z) ** n
                 for m in range(-5, 6) for n in range(-5, 6))
    assert np.isfinite(a.evaluate(z)).all() if np.ndim(a.evaluate(z)) else np.isfinite(a.evaluate(z))
    assert abs(a.evaluate(z) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_support_tag_validation():
    with pytest.raises(ValueError):
        po.CircleSeries(np.array([0.0, 0.0, 1.0]), SUPPORT_EXTERIOR_VANISHING)


@pytest.mark.parametrize("support, first_outside", [(SUPPORT_EXTERIOR, 1),
                                                    (SUPPORT_EXTERIOR_VANISHING, 0)])
def test_support_tag_refuses_nonzero_and_nan_outside(support, first_outside):
    # K = 3: modes k >= first_outside lie outside the tag; NaN there is refused
    # too (inside it is the caller's), and -0.0 is zero
    ok = np.full(7, -0.0, dtype=np.complex128)
    ok[:3 + first_outside] = 1.0
    ok[0] = np.nan
    assert po.CircleSeries(ok, support).support == support
    for k in range(first_outside, 4):
        for bad in (1e-300, np.nan, complex(0.0, np.nan)):
            arr = np.zeros(7, dtype=np.complex128)
            arr[3 + k] = bad
            with pytest.raises(ValueError, match="outside declared support"):
                po.CircleSeries(arr, support)


def test_jet_matches_repeated_radial():
    # row mu of the jet restricts (-(r d/dr)/2)^mu a, r d/dr applied to the grid
    rng = np.random.default_rng(41)
    a = random_annulus(rng, 5, RHO)
    m = np.arange(-5, 6)
    b = a.coeffs
    for mu, got in enumerate(a.jet(3)):
        want = grid_restrictions(b, 0.0, 0)[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.sum(np.abs(want))), mu
        b = b * (m[:, None] + m[None, :]) * (-0.5)


@pytest.mark.parametrize("K", [0, 1, 7, 48])
def test_circle_horner_matches_power_matrix(K):
    rng = np.random.default_rng(51 + K)
    z = (np.exp(rng.uniform(math.log(0.5), math.log(2.0), 400))
         * np.exp(2j * np.pi * rng.random(400)))
    for c in (random_circle(rng, K),
              po.CircleSeries(np.where(np.arange(2 * K + 1) <= K, 1.0, 0.0) * (1 + 0.5j)),
              po.CircleSeries(np.where(np.arange(2 * K + 1) >= K, 1.0, 0.0) * (0.3 - 1j))):
        powers = z[:, None] ** np.arange(-K, K + 1)
        want = powers @ c.coeffs
        scale = np.abs(powers) @ np.abs(c.coeffs)
        assert np.max(np.abs(c.evaluate(z) - want) / np.maximum(scale, 1e-300)) <= 1e-13
    zero = po.circle_zeros(K)
    assert np.all(zero.evaluate(z) == 0.0)


def test_circle_evaluate_scalar_and_empty():
    c = po.circle_from_modes({-2: 0.5, 0: 1.0, 3: 0.25j}, 4)
    z = 1.1 * np.exp(0.7j)
    got = c.evaluate(z)
    assert np.ndim(got) == 0
    assert abs(got - (0.5 * z ** -2 + 1.0 + 0.25j * z ** 3)) <= 1e-15 * 3
    assert c.evaluate(np.array([z])).shape == (1,)
    assert c.evaluate(np.zeros(0, dtype=complex)).shape == (0,)


@pytest.mark.parametrize("size", [0, 1, EVAL_CHUNK, EVAL_CHUNK + 1])
def test_annulus_chunked_evaluate_matches_einsum(size):
    rng = np.random.default_rng(61)
    a = random_annulus(rng, 6, RHO)
    z = rng.uniform(RHO, 1 / RHO, size) * np.exp(2j * np.pi * rng.random(size))
    exps = np.arange(-6, 7)
    zp, wp = z[:, None] ** exps, np.conj(z)[:, None] ** exps
    want = np.einsum("pm,mn,pn->p", zp, a.coeffs, wp)
    scale = np.einsum("pm,mn,pn->p", np.abs(zp), np.abs(a.coeffs), np.abs(wp))
    got = a.evaluate(z)
    assert got.shape == (size,)
    if size:
        assert np.max(np.abs(got - want) / scale) <= 1e-13


def test_trimmed_keeps_values_and_tag():
    c = po.circle_from_modes({-2: 0.5, 1: 1.0}, 9)
    t = c.trimmed()
    assert t.bandwidth == 2 and t.coeff(-2) == 0.5 and t.coeff(1) == 1.0
    assert po.hardy_project(c).trimmed().support == SUPPORT_EXTERIOR_VANISHING
    assert po.circle_zeros(5).trimmed().bandwidth == 0
