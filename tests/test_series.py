import math
import re

import numpy as np
import pytest

import planorth as po
from planorth import series
from planorth.errors import NonFiniteError, TruncationOverflowError
from planorth.hierarchy import weighted_derivative
from planorth.series import EVAL_CHUNK

from conftest import (circle_exp_fixed, conjugate_on_circle, grid_restrictions, random_annulus,
                      random_circle, szego_of, terms_jet)

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
    e = po.circle_exp(po.CircleSeries(np.zeros(2 * 6 + 1)))
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


def _exp_test_series(all_preset_models):
    """The presets' ``F`` and the oracle test's ``f``."""
    fs = {name: model.szego.F for name, model in all_preset_models.items()}
    fs["oracle"] = po.circle_from_modes({1: 0.2, -1: -0.2, 2: 0.1j, -3: 0.05}, 30)
    return fs


def _record_fft_sizes(monkeypatch) -> list:
    """The list that the sizes of every forward FFT go to until ``monkeypatch.undo()``."""
    sizes, forward = [], np.fft.fft

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return forward(a, *args, **kwargs)

    monkeypatch.setattr(series.np.fft, "fft", recording)
    return sizes


def test_exp_matches_the_fixed_transform(all_preset_models):
    for name, f in _exp_test_series(all_preset_models).items():
        want = circle_exp_fixed(f)
        got = po.circle_exp(f)
        assert np.max(np.abs((got - want).coeffs)) <= 1e-15 * want.l1(), name


def test_exp_samples_what_its_spectrum_needs(all_preset_models, monkeypatch):
    for name, f in _exp_test_series(all_preset_models).items():
        sizes = _record_fft_sizes(monkeypatch)
        po.circle_exp(f)
        monkeypatch.undo()
        assert sizes[0] >= 2 * (2 * f.bandwidth + 1) and max(sizes) <= 256, (name, sizes)
    # a spectrum too wide for its bandwidth doubles the count up to the cap,
    # the first power of two >= OVERSAMPLE (2K+1) = 81, and is then refused
    sizes = _record_fft_sizes(monkeypatch)
    with pytest.raises(TruncationOverflowError, match="beyond bandwidth 4"):
        po.circle_exp(po.circle_from_modes({1: 100.0}, 4))
    monkeypatch.undo()
    assert sizes == [32, 64, 128]


def test_exp_refuses_samples_beyond_the_float_range():
    with pytest.raises(NonFiniteError, match="bandwidth 4 has samples beyond the float range"):
        po.circle_exp(po.circle_from_modes({1: 800.0}, 4))


def test_circle_residual_is_the_evaluation_at_the_roots_of_unity(all_preset_models):
    ts = np.exp(2j * np.pi * np.arange(256) / 256)
    # modes +-129 of E fold onto -+127 at 256 samples
    h_wide = po.circle_from_modes({0: 0.3j, 129: 1e-7 + 5e-8j}, 130)
    szs = [model.szego for model in all_preset_models.values()] + [szego_of(h_wide)]
    assert szs[-1].E.coeff(129) != 0 and szs[-1].E.coeff(-129) != 0
    for sz in szs:
        want = float(np.max(np.abs(np.abs(sz.E.evaluate(ts)) ** 2 - 1.0)))
        assert abs(sz.circle_residual - want) <= 1e-15


@pytest.mark.parametrize("K, n", [(0, 2), (3, 16), (8, 16), (130, 256), (300, 256)])
def test_fold_gives_the_values_at_the_roots_of_unity(K, n):
    # an inverse FFT of the modes folded mod n is the series at the n-th roots
    # of unity, also where modes beyond n/2 alias onto lower ones
    c = random_circle(np.random.default_rng(71 + K), K)
    ts = np.exp(2j * np.pi * np.arange(n) / n)
    got = np.fft.ifft(series._fold(c.coeffs, n), norm="forward")
    assert np.max(np.abs(got - c.evaluate(ts))) <= 1e-13 * c.l1()


def _jet(g, order):
    """The circle jet of a term grid's terms at the bandwidth ``2M`` they reach."""
    return terms_jet(g.terms(), 2 * g.bidegree, order)


def test_wirtinger_and_radial():
    # z d/dz multiplies mode k by k: with a flat weight T z^k = (k + 1) z^k
    sz = po.szego(po.pullback_weight(po.disk_map(), po.constant_weight(), 4, RHO))
    t = weighted_derivative(po.circle_from_modes({2: 1.0, -3: 1.0}, 8), sz)
    assert t.coeff(2) == 3.0 and t.coeff(-3) == -2.0 and t.l1() == 5.0
    # r d/dr multiplies c[m, n] by m + n; the jet's column 2M + p holds mode p
    jet = _jet(po.annulus_from_terms({(2, 1): 1.0}, 4, RHO), 2)
    assert list(jet[:, 8 + 1]) == [1.0, -1.5, 2.25]
    assert not np.any(_jet(po.annulus_from_terms({(0, 0): 3.0}, 4, RHO), 1)[1])


def test_restrict_modes():
    assert _jet(po.annulus_from_terms({(1, 1): 1.0}, 4, RHO), 0)[0, 8] == 1.0
    assert _jet(po.annulus_from_terms({(2, 1): 1.0}, 4, RHO), 0)[0, 8 + 1] == 1.0


def test_restrict_pointwise_oracle():
    rng = np.random.default_rng(3)
    a = random_annulus(rng, 8, RHO)
    c = po.CircleSeries(_jet(a, 0)[0])
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
    assert not h.coeffs[4:].any()


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


def test_restrict_of_product_is_circle_convolution(disk_alpha_model):
    # the moment table's mu = 0 row restricts X_j conj(X_k) Omega, which on
    # the circle is the product of X_j E and the conjugate of X_k E
    sz, X = disk_alpha_model.szego, disk_alpha_model.coeffs.X
    order = disk_alpha_model.order
    for j in range(order + 1):
        for k in range(order + 1 - j):
            lhs = po.CircleSeries(disk_alpha_model.moments[j, k, 0])
            rhs = (X[j] * sz.E) * conjugate_on_circle(X[k] * sz.E)
            assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-12 * max(1.0, lhs.l1()), (j, k)


def test_exp_inverse_on_circle():
    f = po.circle_from_modes({1: 0.3, -1: -0.3, 2: 0.1j, -2: 0.1j}, 24)  # imaginary on |z| = 1
    e = po.circle_exp(f)
    e_inv = po.circle_exp(-f)
    ts = np.exp(2j * np.pi * np.arange(40) / 40)
    assert np.max(np.abs((e * e_inv).evaluate(ts) - 1.0)) <= 1e-13
    assert np.max(np.abs((e * conjugate_on_circle(e)).evaluate(ts) - 1.0)) <= 1e-13


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


def test_jet_matches_repeated_radial():
    # row mu of the jet restricts (-(r d/dr)/2)^mu a, r d/dr applied to the grid
    rng = np.random.default_rng(41)
    a = random_annulus(rng, 5, RHO)
    m = np.arange(-5, 6)
    b = a.coeffs
    for mu, got in enumerate(_jet(a, 3)):
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
    zero = po.CircleSeries(np.zeros(2 * K + 1))
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
    assert not po.hardy_project(c).trimmed().coeffs[2:].any()
    assert po.CircleSeries(np.zeros(2 * 5 + 1)).trimmed().bandwidth == 0
