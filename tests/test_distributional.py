import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import planorth as po
from planorth import laplace
from planorth.distributional import (_circle_mean, _w_combination, distributional_expectation,
                                     distributional_terms, split_test_function)
from planorth.oracle import berezin_expectation

from conftest import conv2_reference, grid_restrictions, padded_zero_part, random_annulus


def _l1(g):
    return float(np.sum(np.abs(g.coeffs)))


def test_split_constant(disk_alpha_model):
    g = po.annulus_from_terms({(0, 0): 1.0}, 8, disk_alpha_model.inner_radius)
    sp = split_test_function(g)
    assert sp.plus.coeff(0) == 1.0 and sp.plus_infinity == 1.0
    assert sp.minus_conj.l2() == 0.0
    assert not np.any(sp.zero_jet(4))


def test_split_mode_bookkeeping(disk_alpha_model):
    # g = z + 1/z: g_+ = 1/z, g_- = 1/conj(z), g_0 = z - 1/conj(z)
    rho = disk_alpha_model.inner_radius
    g = po.annulus_from_terms({(1, 0): 1.0, (-1, 0): 1.0}, 6, rho)
    sp = split_test_function(g)
    assert sp.plus.coeff(-1) == 1.0 and sp.plus.coeff(0) == 0.0
    assert sp.minus_conj.coeff(-1) == 1.0
    jet, K = sp.zero_jet(2), 12
    # mode 1: (-1/2)^nu from z less (1/2)^nu from 1/conj(z); mode -1 cancels
    assert list(jet[:, K + 1]) == [0.0, -1.0, 0.0]
    jet[:, K + 1] = 0.0
    assert not np.any(jet)


def test_split_reassembly(disk_alpha_model):
    # on the circle g = g_+ + g_-, and g_0 has no mode there
    rng = np.random.default_rng(19)
    rho = disk_alpha_model.inner_radius
    g = random_annulus(rng, 8, rho)
    sp = split_test_function(g)
    zs = np.exp(2j * np.pi * np.arange(36) / 36)
    recon = sp.plus.evaluate(zs) + np.conj(sp.minus_conj.evaluate(zs))
    assert np.max(np.abs(recon - g.evaluate(zs))) <= 1e-12 * max(1.0, _l1(g))
    assert not np.any(sp.zero_jet(3)[0])


def test_zero_jet_hand_values(disk_alpha_model):
    rho = disk_alpha_model.inner_radius
    # |z|^2 - 1: m + n = 2 on the one term that survives, so (-1)^nu at mode 0
    sp = split_test_function(po.annulus_from_terms({(1, 1): 1.0, (0, 0): -1.0}, 1, rho))
    jet = sp.zero_jet(5)
    assert list(jet[:, 2]) == [0.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    jet[:, 2] = 0.0
    assert not np.any(jet)
    # an exterior-holomorphic plus a conjugate-holomorphic part: no g_0
    sp = split_test_function(po.annulus_from_terms({(-1, 0): 1.0, (0, -2): 1.0}, 2, rho))
    assert not np.any(sp.zero_jet(5))


@given(st.integers(0, 5), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.integers(0, 6))
def test_zero_jet_matches_the_padded_grid(M, seed, density, order):
    # the jet of g_0 taken from the jet of g, against the jets of g_0 built
    # as a padded grid; row 0, the restriction of g_0, is exactly zero
    rng = np.random.default_rng(seed)
    side = 2 * M + 1
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    grid[rng.random((side, side)) > density] = 0.0
    g = po.AnnulusSeries(grid, 0.5)
    got = split_test_function(g).zero_jet(order)
    assert not np.any(got[0])
    # the padded grid reaches modes |p| <= 4M, of which those beyond 2M are zero
    want = grid_restrictions(padded_zero_part(g), 0.0, order)[:, 2 * M:6 * M + 1]
    scale = (1.0 + 2.0 * _l1(g)) * max(1, M) ** order
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_w_operator_hand_value(disk_const_model):
    # W(1) on the flat disk, two terms: identity plus (1/N) * binom(2,1) * (-1)
    w = _w_combination(disk_const_model.norm.moments[0, 0], 10, nu=1, order=2)
    assert abs(w[(w.size - 1) // 2] - 0.8) < 1e-14
    assert np.linalg.norm(w) == pytest.approx(0.8)


def test_expectation_constant_is_one(disk_alpha_model):
    g = po.annulus_from_terms({(0, 0): 1.0}, 8, disk_alpha_model.inner_radius)
    sp = split_test_function(g)
    for N in (8, 32):
        assert distributional_expectation(disk_alpha_model, sp, N, order=2) == 1.0


def test_expectation_zero_part_rate(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    model = disk_alpha_model
    g = po.annulus_from_terms({(1, 1): 1.0, (0, 0): -1.0},
                              model.szego.omega_flat.bidegree, model.inner_radius)
    sp = split_test_function(g)
    oracle = {N: berezin_expectation(model, polys, g, N) for N in (16, 32)}
    # leading behavior ~ c/N: the boundary value halves within factor 1.6
    drop = abs(oracle[16]) / abs(oracle[32])
    assert 2 / 1.6 <= drop <= 2 * 1.6
    errs = {N: abs(distributional_expectation(model, sp, N, order=1) - oracle[N])
            for N in (16, 32)}
    assert errs[16] / errs[32] >= 2 ** 1.5


def test_harmonic_measure_limit(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    model = disk_alpha_model
    g = po.annulus_from_terms({(-1, 0): 1.0}, 8, model.inner_radius)
    sp = split_test_function(g)
    assert sp.plus_infinity == 0.0
    for N in (16, 32):
        assert distributional_expectation(model, sp, N, order=2) == 0.0
        assert abs(berezin_expectation(model, polys, g, N)) <= 0.5 / N


def test_expectation_real_for_real_input(disk_alpha_model):
    rng = np.random.default_rng(33)
    rho = disk_alpha_model.inner_radius
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    g = po.AnnulusSeries(A + np.conj(A).T, rho)
    assert np.array_equal(g.coeffs.T, np.conj(g.coeffs))
    sp = split_test_function(g)
    v = distributional_expectation(disk_alpha_model, sp, 16, order=3)
    assert abs(v.imag) <= 1e-10 * max(1.0, abs(v))


def test_expectation_conjugation_symmetry(disk_alpha_model):
    rng = np.random.default_rng(35)
    rho = disk_alpha_model.inner_radius
    g = random_annulus(rng, 6, rho, scale=0.5)
    sp = split_test_function(g)
    spc = split_test_function(po.AnnulusSeries(np.conj(g.coeffs).T, rho))
    v = distributional_expectation(disk_alpha_model, sp, 24, order=3)
    vc = distributional_expectation(disk_alpha_model, spc, 24, order=3)
    assert abs(vc - np.conj(v)) <= 1e-12 * max(1.0, abs(v))


def test_circle_mean_pairing():
    u = po.circle_from_modes({1: 2.0, -1: 3.0}, 4)
    v = po.circle_from_modes({-1: 5.0, 1: 7.0}, 4)
    assert _circle_mean(u.coeffs, v.coeffs) == 2.0 * 5.0 + 3.0 * 7.0


def _radial(b):
    """``r d/dr`` on a centred bi-Laurent grid: ``c[m, n]`` times ``m + n``."""
    m = np.arange(b.shape[0]) - (b.shape[0] - 1) // 2
    return b * (m[:, None] + m[None, :])


def _radial_chain_w_operator(sz, N, nu, order, a):
    """The weighted boundary operator as first implemented: multiply by the
    bi-Laurent grid of ``Omega``, then apply ``(-(r d/dr)/2 - 1)`` once per
    power of ``1/N``; circle modes, centred."""
    b = conv2_reference(a, sz.omega_flat.coeffs)
    acc = 0.0
    for mu in range(order - nu + 1):
        acc = acc + grid_restrictions(b, 0.0, 0)[0] * (math.comb(nu + mu, nu) * float(N) ** (-mu))
        b = _radial(b) * (-0.5) + (-1.0) * b
    return acc


def _centred_difference(u, v):
    """``u - v`` for centred mode arrays of any lengths."""
    K = max(u.size, v.size)
    return np.pad(u, (K - u.size) // 2) - np.pad(v, (K - v.size) // 2)


def _correction_product(model, j, k):
    """``X_j conj(X_k)`` as a centred bi-Laurent grid."""
    return np.outer(model.coeffs.X[j].coeffs, np.conj(model.coeffs.X[k].coeffs))


def test_w_operator_matches_radial_chain(all_preset_models):
    # every row of the moment table, combined into W, against the radial chain
    for name, model in all_preset_models.items():
        for j in range(model.order + 1):
            for k in range(model.order + 1 - j):
                a = _correction_product(model, j, k)
                for nu in (1, 2, 4):
                    got = _w_combination(model.norm.moments[j, k], 17, nu, 4)
                    want = _radial_chain_w_operator(model.szego, 17, nu, 4, a)
                    dev = np.max(np.abs(_centred_difference(got, want)))
                    assert dev <= 1e-13 * np.sum(np.abs(want)), \
                        (name, j, k, nu)


def test_terms_match_per_call_form(all_preset_models):
    # the per-model moment table against the per-request radial chain;
    # a complex weight makes the corrections complex, so conj(X_k) matters
    rng = np.random.default_rng(29)
    models = dict(all_preset_models)
    models["disk-complex"] = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.2 + 0.2j),
                                            4, bidegree=16, inner_radius=0.5)
    for name, model in models.items():
        sz, rho = model.szego, model.inner_radius
        g = random_annulus(rng, 6, rho, scale=0.5)
        split = split_test_function(g)
        order, N = model.order, 13
        want = []
        for nu in range(1, order + 1):
            b = padded_zero_part(g)
            for _ in range(nu):
                b = _radial(b) * (-0.5)
            gnu = grid_restrictions(b, 0.0, 0)[0]
            for j in range(order - nu + 1):
                for k in range(order - nu - j + 1):
                    a = _correction_product(model, j, k)
                    wk = _radial_chain_w_operator(sz, N, nu, order, a)
                    want.append(((nu, j, k), float(N) ** (-(nu + j + k)) * _circle_mean(gnu, wk)))
        got = distributional_terms(model, split, N)
        assert [idx for idx, _ in got] == [idx for idx, _ in want], name
        l1 = sum(abs(v) for _, v in want)
        dev = max(abs(g - w) for (_, g), (_, w) in zip(got, want))
        assert dev <= 1e-13 * l1, (name, dev, l1)


def test_expectation_forms_no_products(disk_alpha_model, monkeypatch):
    # the weighted side comes from the model's moment table, computed on the
    # first read and kept, so no later request forms a product with Omega
    rng = np.random.default_rng(31)
    split = split_test_function(random_annulus(rng, 6, disk_alpha_model.inner_radius))
    table = disk_alpha_model.norm.moments

    def forbidden(*args, **kwargs):
        raise AssertionError("a product with Omega formed inside a request")

    monkeypatch.setattr(laplace, "_moment_table", forbidden)
    monkeypatch.setattr(laplace, "_product_stack", forbidden)
    assert np.isfinite(distributional_expectation(disk_alpha_model, split, 20))
    assert disk_alpha_model.norm.moments is table
