import math

import numpy as np
import pytest

import planorth as po
from planorth.errors import ConvergenceError, DomainError, TruncationOverflowError
from planorth.series import EVAL_CHUNK, SUPPORT_EXTERIOR_VANISHING, radial_moments

from conftest import random_annulus, random_circle

RHO = 0.7


def test_multiply_monomials():
    a = po.annulus_from_terms({(1, 0): 1.0}, 4, RHO)
    b = po.annulus_from_terms({(0, 1): 1.0}, 4, RHO)
    p = po.multiply(a, b)
    assert p.coeff(1, 1) == 1.0
    nz = np.argwhere(p.coeffs != 0)
    assert len(nz) == 1


def test_multiply_identity():
    rng = np.random.default_rng(7)
    b = random_annulus(rng, 5, RHO)
    one = po.annulus_constant(1.0, 5, RHO)
    p = po.multiply(one, b)
    assert np.max(np.abs(p.coeffs[5:16, 5:16] - b.coeffs)) == 0.0


def test_multiply_pointwise_oracle():
    rng = np.random.default_rng(11)
    a = random_annulus(rng, 8, RHO, scale=0.3)
    b = random_annulus(rng, 8, RHO, scale=0.3)
    p = po.multiply(a, b)
    zs = 1.05 * np.exp(2j * np.pi * np.arange(32) / 32)
    lhs = p.evaluate(zs)
    rhs = a.evaluate(zs) * b.evaluate(zs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_multiply_truncation_overflow():
    a = po.annulus_from_terms({(3, 0): 1.0}, 4, RHO)
    with pytest.raises(TruncationOverflowError):
        po.multiply(a, a, cap=4)


def test_exp_zero():
    e = po.series_exp(po.annulus_zeros(6, RHO))
    assert e.coeff(0, 0) == 1.0
    assert np.sum(np.abs(e.coeffs)) == 1.0


def test_exp_taylor_coefficients():
    alpha = 0.3
    e = po.series_exp(po.annulus_from_terms({(1, 0): alpha}, 12, RHO))
    for k in range(12):
        assert abs(e.coeff(k, 0) - alpha ** k / math.factorial(k)) < 1e-15


def test_exp_scalar_evaluation_oracle():
    a = po.annulus_from_terms({(1, 0): 0.2, (0, 1): 0.2, (-1, 0): -0.2, (0, -1): -0.2}, 14, RHO)
    e = po.series_exp(a)
    zs = np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.max(np.abs(e.evaluate(zs) - np.exp(a.evaluate(zs)))) <= 1e-12


def test_exp_norm_limit():
    with pytest.raises(ConvergenceError):
        po.series_exp(po.annulus_from_terms({(1, 0): 100.0}, 4, RHO))


def test_wirtinger_and_radial():
    a = po.annulus_from_terms({(2, 1): 1.0}, 4, RHO)
    assert po.wirtinger_z(a).coeff(2, 1) == 2.0
    assert po.wirtinger_zbar(a).coeff(2, 1) == 1.0
    assert np.all(po.radial(po.annulus_constant(3.0, 4, RHO)).coeffs == 0.0)
    zz = po.annulus_from_terms({(1, 1): 1.0}, 4, RHO)
    assert po.radial(zz).coeff(1, 1) == 2.0


def test_restrict_modes():
    assert po.restrict_to_circle(po.annulus_from_terms({(1, 1): 1.0}, 4, RHO)).coeff(0) == 1.0
    assert po.restrict_to_circle(po.annulus_from_terms({(2, 1): 1.0}, 4, RHO)).coeff(1) == 1.0


def test_restrict_pointwise_oracle():
    rng = np.random.default_rng(3)
    a = random_annulus(rng, 8, RHO)
    c = po.restrict_to_circle(a)
    ts = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(a.evaluate(ts) - c.evaluate(ts))) <= 1e-12 * max(1.0, a.l1())


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


def test_restrict_of_product_is_circle_convolution():
    rng = np.random.default_rng(23)
    for _ in range(4):
        a = random_annulus(rng, 6, RHO, scale=0.5)
        b = random_annulus(rng, 6, RHO, scale=0.5)
        lhs = po.restrict_to_circle(po.multiply(a, b))
        rhs = po.restrict_to_circle(a) * po.restrict_to_circle(b)
        assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-12 * max(1.0, lhs.l1())


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
    a = po.annulus_from_terms({(1, 0): 0.3, (0, 1): 0.3, (-1, 0): -0.3, (0, -1): -0.3}, 16, RHO)
    prod = po.multiply(po.series_exp(a), po.series_exp(-a))
    ts = np.exp(2j * np.pi * np.arange(40) / 40)
    assert np.max(np.abs(prod.evaluate(ts) - 1.0)) <= 1e-10


def test_real_tag_invariant():
    a = po.annulus_from_terms({(1, 0): 0.4 + 0.2j, (0, 1): 0.4 - 0.2j}, 4, RHO)
    assert a.is_real()
    assert not po.annulus_from_terms({(1, 0): 1.0}, 4, RHO).is_real()
    ts = 0.9 * np.exp(1j * np.linspace(0, 6, 7))
    assert np.max(np.abs(np.imag(a.evaluate(ts)))) < 1e-15


def test_annulus_evaluation_matches_coefficientwise():
    rng = np.random.default_rng(31)
    a = random_annulus(rng, 5, RHO)
    z = 1.02 * np.exp(0.3j)
    direct = sum(a.coeff(m, n) * z ** m * np.conj(z) ** n
                 for m in range(-5, 6) for n in range(-5, 6))
    assert np.isfinite(a.evaluate(z)).all() if np.ndim(a.evaluate(z)) else np.isfinite(a.evaluate(z))
    assert abs(a.evaluate(z) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_support_tag_validation():
    with pytest.raises(ValueError):
        po.CircleSeries(np.array([0.0, 0.0, 1.0]), SUPPORT_EXTERIOR_VANISHING)


def test_radial_moments_match_repeated_radial():
    rng = np.random.default_rng(41)
    a = random_annulus(rng, 5, RHO)
    for shift in (0.0, 1.0):
        b = a
        for mu, got in enumerate(radial_moments(a, shift, 3)):
            want = po.restrict_to_circle(b)
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * max(1.0, want.l1()), mu
            b = po.radial(b) * (-0.5) + (-shift) * b


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
