import math

import numpy as np
import pytest

import planorth as po
from planorth import laplace, series
from planorth.distributional import (_circle_mean, distributional_expectation,
                                     distributional_terms, split_test_function, w_operator)
from planorth.oracle import berezin_expectation

from conftest import random_annulus


def test_split_constant(disk_alpha_model):
    g = po.annulus_constant(1.0, 8, disk_alpha_model.inner_radius)
    sp = split_test_function(g)
    assert sp.plus.coeff(0) == 1.0 and sp.plus_infinity == 1.0
    assert sp.minus_conj.l2() == 0.0 and sp.minus_infinity == 0.0
    assert np.max(np.abs(sp.zero.coeffs)) == 0.0


def test_split_mode_bookkeeping(disk_alpha_model):
    rho = disk_alpha_model.inner_radius
    g = po.annulus_from_terms({(1, 0): 1.0, (-1, 0): 1.0}, 6, rho)
    sp = split_test_function(g)
    assert sp.plus.coeff(-1) == 1.0 and sp.plus.coeff(0) == 0.0
    assert sp.minus_conj.coeff(-1) == 1.0
    assert sp.zero.coeff(1, 0) == 1.0 and sp.zero.coeff(0, -1) == -1.0
    assert po.restrict_to_circle(sp.zero).linf() == 0.0


def test_split_reassembly(disk_alpha_model):
    rng = np.random.default_rng(19)
    rho = disk_alpha_model.inner_radius
    g = random_annulus(rng, 8, rho)
    sp = split_test_function(g)
    zs = np.concatenate([r * np.exp(2j * np.pi * np.arange(12) / 12)
                         for r in (0.85, 1.0, 1.15)])
    recon = (sp.plus.evaluate(zs) + np.conj(sp.minus_conj.evaluate(zs))
             + sp.zero.evaluate(zs))
    assert np.max(np.abs(recon - g.evaluate(zs))) <= 1e-12 * max(1.0, g.l1())
    assert po.restrict_to_circle(sp.zero).linf() <= 1e-12 * max(1.0, g.l1())


def test_w_operator_flat_weight_single_term(disk_const_model):
    sz = disk_const_model.szego
    rho = disk_const_model.inner_radius
    a = po.annulus_from_terms({(1, 1): 0.7, (0, 0): 0.1}, 6, rho)
    w = w_operator(sz, 10, nu=2, order=2, a=a)
    expect = po.restrict_to_circle(a)
    assert np.max(np.abs((w - expect).coeffs)) < 1e-14


def test_w_operator_hand_value(disk_const_model):
    # two terms: identity plus (1/N) * binom(2,1) * (-1) acting on a constant
    sz = disk_const_model.szego
    one = po.annulus_constant(1.0, 6, disk_const_model.inner_radius)
    w = w_operator(sz, 10, nu=1, order=2, a=one)
    assert abs(w.coeff(0) - 0.8) < 1e-14
    assert w.l2() == pytest.approx(0.8)


def test_w_operator_linear(disk_alpha_model):
    sz = disk_alpha_model.szego
    rng = np.random.default_rng(21)
    rho = disk_alpha_model.inner_radius
    a = random_annulus(rng, 4, rho, scale=0.4)
    b = random_annulus(rng, 4, rho, scale=0.4)
    length = w_operator(sz, 12, 1, 3, a + b)
    parts = w_operator(sz, 12, 1, 3, a) + w_operator(sz, 12, 1, 3, b)
    assert np.max(np.abs((length - parts).coeffs)) <= 1e-12 * max(1.0, length.l1())


def test_expectation_constant_is_one(disk_alpha_model):
    g = po.annulus_constant(1.0, 8, disk_alpha_model.inner_radius)
    sp = split_test_function(g)
    for N in (8, 32):
        assert distributional_expectation(disk_alpha_model, sp, N, order=2) == 1.0


def test_expectation_zero_part_rate(disk_alpha_model, disk_alpha_oracle):
    rule, polys = disk_alpha_oracle
    model = disk_alpha_model
    g = po.annulus_from_terms({(1, 1): 1.0, (0, 0): -1.0},
                              model.szego.omega_flat.bidegree, model.inner_radius)
    sp = split_test_function(g)
    oracle = {N: berezin_expectation(model, polys, rule, g, N) for N in (16, 32)}
    # leading behavior ~ c/N: the boundary value halves within factor 1.6
    drop = abs(oracle[16]) / abs(oracle[32])
    assert 2 / 1.6 <= drop <= 2 * 1.6
    errs = {N: abs(distributional_expectation(model, sp, N, order=1) - oracle[N])
            for N in (16, 32)}
    assert errs[16] / errs[32] >= 2 ** 1.5


def test_harmonic_measure_limit(disk_alpha_model, disk_alpha_oracle):
    rule, polys = disk_alpha_oracle
    model = disk_alpha_model
    g = po.annulus_from_terms({(-1, 0): 1.0}, 8, model.inner_radius)
    sp = split_test_function(g)
    assert sp.plus_infinity == 0.0
    for N in (16, 32):
        assert distributional_expectation(model, sp, N, order=2) == 0.0
        assert abs(berezin_expectation(model, polys, rule, g, N)) <= 0.5 / N


def test_expectation_real_for_real_input(disk_alpha_model):
    rng = np.random.default_rng(33)
    rho = disk_alpha_model.inner_radius
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    g = po.AnnulusSeries(A + np.conj(A).T, rho)
    assert g.is_real()
    sp = split_test_function(g)
    v = distributional_expectation(disk_alpha_model, sp, 16, order=3)
    assert abs(v.imag) <= 1e-10 * max(1.0, abs(v))


def test_expectation_conjugation_symmetry(disk_alpha_model):
    rng = np.random.default_rng(35)
    rho = disk_alpha_model.inner_radius
    g = random_annulus(rng, 6, rho, scale=0.5)
    sp = split_test_function(g)
    spc = split_test_function(g.conjugate())
    v = distributional_expectation(disk_alpha_model, sp, 24, order=3)
    vc = distributional_expectation(disk_alpha_model, spc, 24, order=3)
    assert abs(vc - np.conj(v)) <= 1e-12 * max(1.0, abs(v))


def test_circle_mean_pairing():
    u = po.circle_from_modes({1: 2.0, -1: 3.0}, 4)
    v = po.circle_from_modes({-1: 5.0, 1: 7.0}, 4)
    assert _circle_mean(u, v) == 2.0 * 5.0 + 3.0 * 7.0


def _radial_chain_w_operator(sz, N, nu, order, a):
    """``w_operator`` as first implemented: multiply by ``Omega``, then apply
    ``(-(r d/dr)/2 - 1)`` once per power of ``1/N``."""
    b = po.multiply(a, sz.omega_flat, cap=sz.omega_flat.bidegree)
    acc = None
    for mu in range(order - nu + 1):
        term = po.restrict_to_circle(b) * (math.comb(nu + mu, nu) * float(N) ** (-mu))
        acc = term if acc is None else acc + term
        b = po.radial(b) * (-0.5) + (-1.0) * b
    return acc


def test_w_operator_matches_radial_chain(all_preset_models):
    rng = np.random.default_rng(23)
    for name, model in all_preset_models.items():
        a = random_annulus(rng, 4, model.inner_radius, scale=0.4)
        for nu in (1, 2, 4):
            got = w_operator(model.szego, 17, nu, 4, a)
            want = _radial_chain_w_operator(model.szego, 17, nu, 4, a)
            assert np.max(np.abs((got - want).coeffs)) <= 1e-13 * want.l1(), (name, nu)


def test_terms_match_per_call_form(all_preset_models):
    # the per-model moment table against the per-request products it replaced
    rng = np.random.default_rng(29)
    for name, model in all_preset_models.items():
        sz = model.szego
        M, rho = sz.omega_flat.bidegree, model.inner_radius
        split = split_test_function(random_annulus(rng, 6, rho, scale=0.5))
        order, N = model.order, 13
        want = []
        for nu in range(1, order + 1):
            b = split.zero
            for _ in range(nu):
                b = po.radial(b) * (-0.5)
            gnu = po.restrict_to_circle(b)
            for j in range(order - nu + 1):
                for k in range(order - nu - j + 1):
                    a = po.multiply(po.lift_holomorphic(model.coeffs.X[j], M, rho),
                                    po.conjugate_lift(model.coeffs.X[k], M, rho), cap=M)
                    wk = w_operator(sz, N, nu, order, a)
                    want.append(((nu, j, k), float(N) ** (-(nu + j + k)) * _circle_mean(gnu, wk)))
        got = distributional_terms(model, split, N)
        assert [idx for idx, _ in got] == [idx for idx, _ in want], name
        l1 = sum(abs(v) for _, v in want)
        dev = max(abs(g - w) for (_, g), (_, w) in zip(got, want))
        assert dev <= 1e-13 * l1, (name, dev, l1)


def test_expectation_forms_no_products(disk_alpha_model, monkeypatch):
    # the weighted side comes from the model's moment table, built once
    rng = np.random.default_rng(31)
    split = split_test_function(random_annulus(rng, 6, disk_alpha_model.inner_radius))

    def forbidden(*args, **kwargs):
        raise AssertionError("series.multiply called inside a request")

    monkeypatch.setattr(series, "multiply", forbidden)
    monkeypatch.setattr(laplace, "multiply", forbidden)
    assert np.isfinite(distributional_expectation(disk_alpha_model, split, 20))
