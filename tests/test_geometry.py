import numpy as np
import pytest

import planorth as po
from planorth.errors import ConfigError, ConvergenceError, PositivityError
from planorth.geometry import FIT_TOL, WeightDef, phi_prime


def test_map_forward_identity():
    m = po.disk_map()
    assert po.map_forward(m, 2.0) == pytest.approx(2.0)


def test_map_forward_ellipse_roundtrip():
    m = po.ellipse_map(2, 1)
    z = m.psi(1.3)
    assert abs(po.map_forward(m, z) - 1.3) < 1e-12


def test_map_forward_defining_equation_residual():
    m = po.ellipse_map(2, 1)
    zeta = po.map_forward(m, 3.0)
    assert abs(1.5 * zeta + 0.5 / zeta - 3.0) <= 1e-12


def test_map_forward_rings_roundtrip():
    m = po.ellipse_map(2, 1)
    for r in (1.0, 1.1, 1.3):
        zeta = r * np.exp(2j * np.pi * np.arange(16) / 16)
        back = po.map_forward(m, m.psi(zeta))
        assert np.max(np.abs(back - zeta)) <= 1e-12 * r


def test_map_forward_rejects_deep_interior():
    m = po.ellipse_map(2, 1)
    with pytest.raises(ConvergenceError):
        po.map_forward(m, 0.0)


def test_capacity_values():
    assert po.capacity(po.disk_map()) == 1.0
    assert po.capacity(po.disk_map(radius=2.5)) == 2.5
    assert po.capacity(po.ellipse_map(2, 1)) == 1.5


def test_capacity_scaling_law():
    m = po.ellipse_map(2, 1)
    lam = 3.7
    scaled = po.exterior_map(lam * m.cap, lam * m.tail)
    assert po.capacity(scaled) == pytest.approx(lam * po.capacity(m))


def test_orthostaticity_validation():
    with pytest.raises(ConfigError):
        po.exterior_map(-1.0, [])
    with pytest.raises(ConfigError):
        po.exterior_map(0.0, [])


def test_univalence_margin_guard():
    # psi' of the 2x1 ellipse vanishes at |zeta| = 1/sqrt(3); a collar below that is rejected
    with pytest.raises(ConfigError):
        po.exterior_map(1.5, [0.0, 0.5], univalence_margin=0.3)
    m = po.ellipse_map(2, 1)
    assert m.univalence_margin > 1 / np.sqrt(3)


def test_pullback_constant_weight():
    ws = po.pullback_weight(po.disk_map(), po.constant_weight(1.0), 8, 0.7)
    assert np.max(np.abs(ws.pullback.coeffs)) == 0.0
    assert ws.fit_residual < 1e-14


def test_pullback_disk_linear_weight():
    alpha = 0.3
    ws = po.pullback_weight(po.disk_map(), po.exp_re_linear_weight(alpha), 8, 0.7)
    h = ws.pullback
    assert h.bandwidth == 16
    assert abs(h.coeff(1) - alpha) < 1e-14
    rest = h.coeffs.copy()
    rest[16 + 1] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12


def test_pullback_ellipse_fit_residual():
    ws = po.pullback_weight(po.ellipse_map(2, 1), po.exp_re_linear_weight(0.5), 24, 0.75)
    assert ws.fit_residual <= 1e-10


def test_pullback_sampled_path_matches_exact():
    # black-box evaluator forces the Fourier + radial least-squares route
    target = po.exp_re_linear_weight(0.3)
    blackbox = WeightDef("custom", target.evaluator)
    m = po.disk_map()
    ws = po.pullback_weight(m, blackbox, 6, 0.7)
    exact = po.pullback_weight(m, target, 6, 0.7)
    assert ws.fit_residual <= 1e-9
    assert np.max(np.abs(ws.pullback.coeffs - exact.pullback.coeffs)) < 1e-8


def test_pullback_positivity_guard():
    bad = WeightDef("custom", lambda z: np.real(z))  # negative on part of the collar
    with pytest.raises((PositivityError, po.WeightResolutionError)):
        po.pullback_weight(po.disk_map(), bad, 6, 0.7)


def test_blackbox_harmonic_weight_reproduces_F():
    # the harmonic fit from two circles recovers the exact outer data
    target = po.exp_re_linear_weight(0.3)
    for m in (po.disk_map(), po.ellipse_map(2, 1)):
        exact = po.szego(po.pullback_weight(m, target, 12, 0.75))
        fitted = po.szego(po.pullback_weight(m, WeightDef("custom", target.evaluator), 12, 0.75))
        assert (fitted.F - exact.F).linf() <= FIT_TOL
        assert abs(fitted.v_infinity - exact.v_infinity) <= FIT_TOL


def test_nonharmonic_blackbox_weight_is_refused():
    # log omega = 0.01 |z|^2 is not harmonic: no (F, E) pair represents it
    radial = WeightDef("custom", lambda z: np.exp(0.01 * np.abs(z) ** 2))
    with pytest.raises(po.WeightResolutionError, match=r"non-harmonic residual \d\.\d{3}e-0\d"):
        po.pullback_weight(po.disk_map(), radial, 12, 0.7)


def test_sampled_weight_fit():
    rng = np.random.default_rng(4)
    pts = 1.1 * np.exp(2j * np.pi * rng.random(40))
    truth = po.exp_re_linear_weight(0.2 + 0.1j)
    wd = po.sampled_weight(pts, truth(pts), degree=3)
    zs = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.max(np.abs(wd(zs) - truth(zs))) < 1e-10


def test_szego_constant_weight(disk_const_model):
    sz = disk_const_model.szego
    assert np.max(np.abs(sz.v_exterior.coeffs)) == 0.0
    assert sz.v_infinity == 0.0
    ts = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(sz.omega_flat.evaluate(ts) - 1.0)) < 1e-14


def test_szego_disk_linear_weight(disk_alpha_model):
    sz = disk_alpha_model.szego
    assert abs(sz.v_exterior.coeff(-1) + 0.3) < 1e-13
    assert abs(sz.v_infinity) < 1e-13
    # flattened weight equals exp(2 Re(alpha z - alpha/z)) on the annulus
    zs = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    expect = np.exp(2 * np.real(0.3 * zs - 0.3 / zs))
    assert np.max(np.abs(sz.omega_flat.evaluate(zs) - expect)) < 1e-12


def test_szego_complex_weight_conjugation():
    alpha = 0.2 + 0.3j
    ws = po.pullback_weight(po.disk_map(), po.exp_re_linear_weight(alpha), 12, 0.7)
    sz = po.szego(ws)
    assert abs(sz.v_exterior.coeff(-1) + np.conj(alpha)) < 1e-13
    zs = 0.92 * np.exp(2j * np.pi * np.arange(12) / 12)
    expect = np.exp(2 * np.real(alpha * zs - np.conj(alpha) / zs))
    assert np.max(np.abs(sz.omega_flat.evaluate(zs) - expect)) < 1e-12


def test_szego_infinity_value_is_mean(ellipse_exp_model):
    sz = ellipse_exp_model.szego
    # mode 0 of V o psi equals half the circle mean of -log(omega o psi)
    m, wd = ellipse_exp_model.map, ellipse_exp_model.weight
    ts = np.exp(2j * np.pi * np.arange(512) / 512)
    mean = np.mean(-np.log(wd.omega(m.psi(ts)))) / 2.0
    assert abs(sz.v_infinity - mean) < 1e-12


def test_szego_circle_normalization(all_preset_models):
    ts = np.exp(2j * np.pi * np.arange(256) / 256)
    for name, model in all_preset_models.items():
        resid = np.max(np.abs(model.szego.omega_flat.evaluate(ts) - 1.0))
        assert resid <= 1e-10, name


def test_outer_factor_is_the_flattened_weight(all_preset_models):
    # |E(zeta)|^2 == omega(psi(zeta)) |exp(V(zeta))|^2 on the annulus, E from
    # the circle FFT and the right-hand side from the weight evaluator
    for name, model in all_preset_models.items():
        rho = model.inner_radius
        zeta = np.concatenate([r * np.exp(2j * np.pi * (np.arange(24) + 0.4) / 24)
                               for r in (rho + 0.02, 1.0, 1.0 / rho - 0.02)])
        want = (model.weight.omega(model.map.psi(zeta))
                * np.abs(np.exp(model.szego.v_exterior.evaluate(zeta))) ** 2)
        got = np.abs(model.szego.E.evaluate(zeta)) ** 2
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12, name


def test_omega_flat_is_the_outer_product_of_E(disk_alpha_model):
    sz = disk_alpha_model.szego
    grid = sz.omega_flat
    assert grid.bidegree == sz.E.bandwidth == 2 * 16
    assert grid.coeff(1, -2) == sz.E.coeff(1) * np.conj(sz.E.coeff(-2))


def test_phi_prime_matches_difference_quotient():
    m = po.ellipse_map(2, 1)
    z = 2.3 + 0.4j
    zeta = po.map_forward(m, z)
    h = 1e-6
    num = (po.map_forward(m, z + h) - po.map_forward(m, z - h)) / (2 * h)
    assert abs(phi_prime(m, zeta) - num) < 1e-8


def test_load_domain_config_roundtrip():
    cfg = {"map": {"cap": 1.5, "tail": [[0.0, 0.0], [0.5, 0.0]]},
           "weight": {"kind": "exp-re-linear", "alpha": [0.5, 0.0]},
           "rho": 0.75, "M": 20, "K": 40}
    m, wd, rho, M, K = po.load_domain_config(cfg)
    assert m.cap == 1.5 and rho == 0.75 and M == 20 and K == 40
    assert wd.kind == "exp-re-linear"
    with pytest.raises(ConfigError):
        po.load_domain_config({"map": {"cap": 1.0}, "weight": {"kind": "nope"}})
    for bad in (16.7, 0, -4, "x", True):
        with pytest.raises(ConfigError, match="M must be"):
            po.load_domain_config({**cfg, "M": bad})
    assert po.load_domain_config({**cfg, "M": 16.0})[3] == 16
