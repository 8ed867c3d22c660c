import math

import numpy as np
import pytest

import planorth as po
from planorth.errors import NonFiniteError, OutOfValidityError
from planorth.expansion import positioning_factor
from planorth.geometry import phi_prime

from conftest import ring_rule

EPS = np.finfo(float).eps


def test_canonical_position_unweighted_disk(disk_const_model):
    one = po.circle_from_modes({0: 1.0}, 4)
    for N in (5, 12):
        z = 1.4 + 0.3j
        assert abs(po.canonical_position(disk_const_model, one, N, z) - z ** N) < 1e-12 * abs(z) ** N


def test_canonical_position_far_field(disk_alpha_model):
    f = po.circle_from_modes({0: 1.0, -1: 0.4}, 4)
    N = 6
    for R in (50.0, 500.0):
        z = R * np.exp(0.7j)
        ratio = abs(po.canonical_position(disk_alpha_model, f, N, z)) / abs(z ** N * f.evaluate(z))
        assert abs(ratio - 1.0) < 5.0 / R


def test_canonical_position_isometry(disk_alpha_model):
    # push the ring rule through the map and compare the two sides of the
    # weighted change of variables; the domain side goes through Newton
    # inversion, the exterior-map derivative and the outer-function series
    model = disk_alpha_model
    N = 9
    f = po.circle_from_modes({0: 1.0, -1: 0.5, -2: 0.25j}, 8)
    w, wts = ring_rule(model.inner_radius, 256)
    annulus_side = np.sum(wts * np.abs(f.evaluate(w)) ** 2 * np.abs(w) ** (2 * N)
                          * model.szego.omega_flat.evaluate(w))
    z = model.map.psi(w)
    jac = np.abs(model.map.psi_prime(w)) ** 2
    lam = po.canonical_position(model, f, N, z)
    domain_side = np.sum(wts * np.abs(lam) ** 2 * model.weight.omega(z) * jac)
    assert abs(annulus_side - domain_side) <= 1e-8 * abs(annulus_side)


def test_monic_prefactor_values(disk_const_model, ellipse_const_model):
    assert po.monic_prefactor(disk_const_model, 7) == pytest.approx(1.0)
    disk2 = po.build_model(po.disk_map(radius=2.0), po.constant_weight(), 2,
                           bidegree=8, inner_radius=0.7)
    assert po.monic_prefactor(disk2, 3) == pytest.approx(16.0)
    assert po.monic_prefactor(ellipse_const_model, 10) == pytest.approx(1.5 ** 11)


def test_monic_exact_on_disk(disk_const_model):
    z = 1.9 - 0.8j
    for N in (5, 10, 20):
        for order in (0, 1, 4):
            val = po.monic_eval(disk_const_model, N, z, order=order)
            assert abs(val - z ** N) <= 1e-12 * abs(z) ** N


def test_monic_far_field_limit(disk_alpha_model):
    # divided by the positioned prefactor, the expansion tends to 1 at infinity
    N = 8
    for R in (40.0, 400.0):
        z = R * np.exp(0.3j)
        zeta = po.map_forward(disk_alpha_model.map, z)
        pref = (po.monic_prefactor(disk_alpha_model, N) / disk_alpha_model.map.psi_prime(zeta)
                * zeta ** N * np.exp(disk_alpha_model.szego.v_exterior.evaluate(zeta)))
        ratio = po.monic_eval(disk_alpha_model, N, z) / pref
        assert abs(ratio - 1.0) < 2.0 / R


def test_monic_vs_oracle_ellipse_carleman(ellipse_const_model, ellipse_const_oracle):
    polys = ellipse_const_oracle
    z, N = 3.0, 30
    target = polys.monic(z, N)
    val = po.monic_eval(ellipse_const_model, N, z)
    assert abs(val / target - 1.0) <= 1e-6


def test_monic_rate_slopes(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    model = disk_alpha_model
    z = 2.0
    zeta = po.map_forward(model.map, z)
    scale_base = (abs(1.0 / model.map.psi_prime(zeta))
                  * abs(np.exp(model.szego.v_exterior.evaluate(zeta))))
    Ns = np.arange(8, 41, 4)
    for order in (0, 1, 2):
        errs = []
        for N in Ns:
            scale = po.monic_prefactor(model, N) * scale_base * abs(zeta) ** N
            errs.append(abs(polys.monic(z, N) - po.monic_eval(model, N, z, order=order)) / scale)
        slope = np.polyfit(np.log(Ns.astype(float)), np.log(errs), 1)[0]
        assert abs(slope + (order + 1)) <= 0.35


def test_leading_coeff_disk(disk_const_model):
    val = po.leading_coeff(disk_const_model, 24, order=2)
    assert abs(val - 5.0) / 5.0 <= 2e-4
    assert val > 0


def test_normalized_matches_carleman_formula(ellipse_const_model, ellipse_const_oracle):
    polys = ellipse_const_oracle
    z, N = 3.0, 30
    zeta = po.map_forward(ellipse_const_model.map, z)
    carleman = math.sqrt(N + 1) / ellipse_const_model.map.psi_prime(zeta) * zeta ** N
    assert abs(po.normalized_eval(ellipse_const_model, N, z) / carleman - 1.0) <= 1e-5
    assert abs(polys.eval_single(z, N) / carleman - 1.0) <= 1e-5


def test_leading_coeff_vs_oracle_improves(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    N = 20
    rel1 = abs(po.leading_coeff(disk_alpha_model, N, order=1) / polys.kappa[N] - 1.0)
    rel2 = abs(po.leading_coeff(disk_alpha_model, N, order=2) / polys.kappa[N] - 1.0)
    assert rel1 <= 1e-3
    assert rel2 < rel1


def test_positivity_of_leading_coeff(all_preset_models):
    for name, model in all_preset_models.items():
        for N in (4, 8, 16, 32, 64):
            assert po.leading_coeff(model, N) > 0, name


def test_monotone_refinement(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    model = disk_alpha_model
    z, N = 2.0, 32
    target = polys.monic(z, N)
    errs = [abs(po.monic_eval(model, N, z, order=k) - target) for k in range(4)]
    for k in range(3):
        assert errs[k + 1] <= errs[k] * 1.05


def test_validity_enforcement(disk_alpha_model):
    with pytest.raises(OutOfValidityError):
        po.monic_eval(disk_alpha_model, 30, 0.62)  # |phi| = 0.62 < 1 - log(30)/30
    with pytest.raises(OutOfValidityError):
        po.monic_eval(disk_alpha_model, 3, 2.0)  # below the degree threshold
    # the same point is fine through the unchecked form (quasipolynomial extension)
    val = po.monic_at(disk_alpha_model, 30, po.map_forward(disk_alpha_model.map, 0.62))
    assert np.isfinite(val)


def test_validity_radius_shape():
    assert po.validity_radius(10) == pytest.approx(1 - math.log(10) / 10)
    assert po.validity_radius(40, 2.0) == pytest.approx(1 - 2 * math.log(40) / 40)


def test_normalized_is_leading_coeff_times_monic(all_preset_models):
    for name, model in all_preset_models.items():
        zeta = 1.3 * np.exp(1j * np.linspace(0.1, 6.0, 7))
        z = model.map.psi(zeta)
        for N in (4, 17, 60, 200):
            want = po.leading_coeff(model, N) * po.monic_eval(model, N, z)
            got = po.normalized_eval(model, N, z)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (name, N)


@pytest.mark.parametrize("N", [4, 99, 100, 3000, 10 ** 4])
def test_positioning_factor_log_polar_form(all_preset_models, N):
    # exp((Re V + N log|zeta|) + i (Im V + N arg zeta)) against exp(V) zeta^N:
    # the same value to the N eps condition of zeta^N (numpy's complex power
    # switches from repeated products to log/exp at N = 100)
    t = np.linspace(-1.0, 6.0, 29)
    zeta = (1.0 + t * math.log(N) / N) * np.exp(1j * np.linspace(0.05, 6.2, 29))
    for name, model in all_preset_models.items():
        want = (phi_prime(model.map, zeta) * np.exp(model.szego.v_exterior.evaluate(zeta))
                * zeta ** N)
        got = positioning_factor(model, N, zeta)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4 * (N + 1) * math.pi * EPS, name


def test_normalized_large_degree_log_domain(ellipse_exp_model):
    # C_N = 1.5^(N+1) exp(-V(inf)) overflows a float from N ~ 1750; the
    # unit-norm value does not need it, since kappa_N C_N = N^(1/2) D_N
    model = ellipse_exp_model
    for N in (2000, 10 ** 4):
        t = np.linspace(-1.0, 2.0, 9)
        z = model.map.psi((1.0 + t * math.log(N) / N) * np.exp(1j * np.linspace(0.2, 6.1, 9)))
        zeta = po.map_forward(model.map, z)
        partial = sum(float(N) ** -j * model.coeffs.X[j].evaluate(zeta)
                      for j in range(model.order + 1))
        log_val = (0.5 * math.log(N) + math.log(po.norm_factor(model, N)) + N * np.log(zeta)
                   + model.szego.v_exterior.evaluate(zeta)
                   - np.log(model.map.psi_prime(zeta)) + np.log(partial))
        got = po.normalized_eval(model, N, z)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got / np.exp(log_val) - 1.0)) <= 1e-10, N
        with pytest.raises(NonFiniteError):
            po.monic_eval(model, N, z)


def test_monic_overflow_is_typed(ellipse_exp_model):
    # ellipse-expre at z = 3, N = 1000: C_N is finite but the monic value
    # leaves the float range; the unit-norm value stays finite
    with pytest.raises(NonFiniteError, match="degree 1000"):
        po.monic_eval(ellipse_exp_model, 1000, 3.0)
    assert np.isfinite(po.normalized_eval(ellipse_exp_model, 1000, 3.0))
    assert np.isfinite(po.monic_eval(ellipse_exp_model, 100, 3.0))


def test_degree_checked_before_overflow(ellipse_exp_model):
    for f in (po.monic_eval, po.normalized_eval):
        with pytest.raises(OutOfValidityError):
            f(ellipse_exp_model, 3, 3.0)
    with pytest.raises(NonFiniteError):
        po.monic_prefactor(ellipse_exp_model, 2000)
