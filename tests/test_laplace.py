import numpy as np
import pytest

import planorth as po
from planorth.laplace import _ps_exp, _ps_log


def test_watson_constant():
    jet = po.JetAtZero([1.0, 0.0, 0.0], 0.0)
    val, bound = po.watson_sum(jet, 10.0)
    assert val == pytest.approx(0.1, abs=1e-15)
    assert bound == 0.0


def test_watson_linear():
    jet = po.JetAtZero([0.0, 1.0, 0.0, 0.0], 0.0)
    val, _ = po.watson_sum(jet, 10.0)
    assert val == pytest.approx(0.01, abs=1e-16)


@pytest.mark.parametrize("lam", [5.0, 10.0, 20.0, 40.0])
def test_watson_exponential_family_bound(lam):
    # G(s) = e^{-s}: derivatives alternate sign, closed form 1/(lam+1)
    kappa = 6
    jet = po.JetAtZero([(-1.0) ** j for j in range(kappa + 1)], 1.0)
    val, bound = po.watson_sum(jet, lam)
    assert abs(val - 1.0 / (lam + 1.0)) <= bound
    if lam == 10.0:
        assert bound == pytest.approx(10.0 ** -8, rel=1e-12)


def test_power_series_log_exp_roundtrip():
    rng = np.random.default_rng(12)
    c = np.concatenate([[1.0 + 0j], 0.3 * (rng.standard_normal(5) + 0j)])
    assert np.max(np.abs(_ps_exp(_ps_log(c)) - c)) < 1e-14


def test_norm_expansion_flat_disk(disk_const_model):
    ne = disk_const_model.norm
    assert abs(ne.d[0] - 0.5) <= 1e-10
    assert abs(ne.d[1] + 0.125) <= 1e-10
    # raw series of the squared norm alternates: N/(N+1) = 1 - 1/N + 1/N^2 - ...
    assert np.max(np.abs(ne.raw - np.array([-1.0, 1.0, -1.0, 1.0]))) < 1e-12


def test_norm_series_real(all_preset_models):
    for name, model in all_preset_models.items():
        assert np.all(np.isreal(model.norm.raw)), name
        assert np.all(np.isreal(model.norm.d)), name


def test_norm_expansion_prefix_stability(disk_alpha_model):
    short = po.norm_expansion(disk_alpha_model.szego, disk_alpha_model.coeffs, 2)
    assert np.max(np.abs(short.d - disk_alpha_model.norm.d[:2])) <= 1e-10


def _bessel_j(m, x, n=4096):
    t = np.linspace(0.0, np.pi, n, endpoint=False) + np.pi / (2 * n)
    return float(np.mean(np.cos(m * t - x * np.sin(t))))


def test_norm_expansion_disk_alpha_bessel_oracle(disk_alpha_model):
    # independent derivation for omega = exp(2 Re(alpha z)) on the unit disk:
    # the flattened weight is exp(2 Re(alpha z - alpha/z)), whose diagonal
    # coefficients are squared Bessel values J_m(2 alpha)^2, giving
    # c_1 = -1 and c_2 = 1 + sum_m m^2 J_m^2 + corrections from the first
    # correction coefficient (alpha^2 terms)
    alpha = 0.3
    x = 2 * alpha
    ms = np.arange(-30, 31)
    J = np.array([_bessel_j(m, x) for m in ms])
    # A_0 jets
    a0 = np.sum(J ** 2)
    s2 = np.sum(ms ** 2 * J ** 2)
    A0_1 = -2.0 * np.sum((ms + 1) * J ** 2)
    A0_2 = 4.0 * np.sum((ms + 1) ** 2 * J ** 2)
    # A_1 jets: 2 alpha * sum_m J_m J_{m+1} terms
    JJ = np.array([_bessel_j(m, x) * _bessel_j(m + 1, x) for m in range(-30, 30)])
    ms2 = np.arange(-30, 30)
    A1_0 = 2 * alpha * np.sum(JJ)
    A1_1 = -4 * alpha * np.sum((ms2 + 1) * JJ)
    # A_2 jet at 0: alpha^2 * 1 - 2 alpha * 0 ... = value of
    # (X_2 conj(X_0) + X_1 conj(X_1) + X_0 conj(X_2)) Omega diagonal mean
    A2_0 = alpha ** 2 * a0 - 2 * alpha * np.sum(JJ)
    c1 = 0.5 * A0_1 + A1_0
    c2 = 0.25 * A0_2 + 0.5 * A1_1 + A2_0
    assert abs(c1 - disk_alpha_model.norm.raw[0]) < 1e-9
    assert abs(c2 - disk_alpha_model.norm.raw[1]) < 1e-9
    assert abs(s2 - x ** 2 / 2) < 1e-12  # sanity of the quadrature Bessel values


def test_norm_expansion_vs_oracle_leading_coeff(disk_alpha_model, disk_alpha_oracle):
    _, polys = disk_alpha_oracle
    consts = []
    for N in (16, 32):
        model_k = po.leading_coeff(disk_alpha_model, N, order=2)
        rel = abs(model_k / polys.kappa[N] - 1.0)
        consts.append(rel * N ** 3)
    # error is O(N^-3) with a stable constant
    assert consts[0] < 2.0 and consts[1] < 2.0
    assert 0.3 < consts[1] / consts[0] < 3.0


def test_norm_expansion_rejects_unsolved_order(disk_alpha_model):
    with pytest.raises(ValueError):
        po.norm_expansion(disk_alpha_model.szego, disk_alpha_model.coeffs,
                          disk_alpha_model.order + 1)


def _product_form_norm_series(model):
    """The squared-norm series as first implemented: sum the products
    ``X_j conj(X_k)`` of each total order, multiply by ``Omega`` and apply
    ``(-(r d/dr) - 2)`` once per derivative, weighting the ``m``-th by ``2^-m``."""
    sz, order = model.szego, model.order
    M = sz.omega_flat.bidegree
    rho = sz.omega_flat.inner_radius
    lifts = [po.lift_holomorphic(model.coeffs.X[j], M, rho) for j in range(order + 1)]
    clifts = [po.conjugate_lift(model.coeffs.X[k], M, rho) for k in range(order + 1)]
    c = np.zeros(order + 1, dtype=np.complex128)
    for q in range(order + 1):
        prod = None
        for j in range(q + 1):
            term = po.multiply(lifts[j], clifts[q - j], cap=M)
            prod = term if prod is None else prod + term
        a = po.multiply(prod, sz.omega_flat, cap=M)
        for m in range(order - q + 1):
            c[q + m] += (0.5 ** m) * po.restrict_to_circle(a).coeff(0)
            a = -po.radial(a) + (-2.0) * a
    return c.real, _ps_exp(-0.5 * _ps_log(c.real.astype(np.complex128))).real


def test_norm_expansion_matches_product_form(all_preset_models):
    # the moment table reads c_p off L^m = 2^-m (-(r d/dr) - 2)^m
    for name, model in all_preset_models.items():
        c, d = _product_form_norm_series(model)
        assert np.max(np.abs(model.norm.raw - c[1:])) <= 1e-13, name
        assert np.max(np.abs(model.norm.d - d[1:])) <= 1e-13, name
        assert set(model.norm.moments) == {(j, k) for j in range(model.order + 1)
                                           for k in range(model.order + 1 - j)}


def test_moment_table_drops_no_mass():
    # X_1 conj(X_0) Omega reaches past bidegree 24 by 1.3e-13 here; the table
    # keeps the whole product (only its restriction is stored), so the build
    # neither trips the truncation guard nor loses that mass
    m = po.exterior_map(1.0, [0.0, 0.0, 0.0, complex(-0.0765155848155947, 0.08851194992952947)])
    w = po.exp_re_poly_weight([0.0, complex(0.003318991724478022, 0.4895720831212811),
                               complex(-0.3231695246045201, 0.24617173043809984)])
    model = po.build_model(m, w, 1, bidegree=24, inner_radius=0.8682)
    assert abs(model.norm.d[0] - 0.5) <= 1e-14
