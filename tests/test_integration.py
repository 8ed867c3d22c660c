"""Cross-validation on nontrivial map/weight combinations: every rate the
expansion promises is measured against the brute-force oracle."""

import numpy as np
import pytest

import planorth as po
from planorth.distributional import distributional_expectation, split_test_function
from planorth.oracle import berezin_expectations
from planorth.presets import preset_parts


def fitted_slopes(model, polys, z, orders, Ns):
    zeta = po.map_forward(model.map, z)
    base = (abs(1.0 / model.map.psi_prime(zeta))
            * abs(np.exp(model.szego.v_exterior.evaluate(zeta))))
    out = {}
    for order in orders:
        errs = []
        for N in Ns:
            scale = po.monic_prefactor(model, N) * base * abs(zeta) ** N
            errs.append(abs(polys.monic(z, N)
                            - po.monic_eval(model, N, z, order=order)) / scale)
        out[order] = float(np.polyfit(np.log(Ns.astype(float)), np.log(errs), 1)[0])
    return out


def test_ellipse_exp_weight_rates(ellipse_exp_model, ellipse_exp_oracle):
    polys = ellipse_exp_oracle
    slopes = fitted_slopes(ellipse_exp_model, polys, 3.0, (0, 1, 2), np.arange(8, 33, 4))
    for order, slope in slopes.items():
        assert abs(slope + (order + 1)) <= 0.35, slopes


def test_ellipse_exp_weight_leading_coeff(ellipse_exp_model, ellipse_exp_oracle):
    polys = ellipse_exp_oracle
    rels = {N: abs(po.leading_coeff(ellipse_exp_model, N, order=2) / polys.kappa[N] - 1.0)
            for N in (16, 32)}
    assert rels[16] / rels[32] >= 2 ** 2.5  # O(N^-3)
    assert rels[32] <= 1e-4


def test_perturbed_map_rates(all_preset_models):
    model = all_preset_models["perturbed-expre"]
    polys = po.boundary_onps(model.map, model.weight.holo_poly, 32)
    slopes = fitted_slopes(model, polys, 2.0, (0, 1, 2), np.arange(8, 33, 4))
    for order, slope in slopes.items():
        assert abs(slope + (order + 1)) <= 0.35, slopes


def test_ellipse_distributional_rates(ellipse_exp_model, ellipse_exp_oracle):
    polys = ellipse_exp_oracle
    model = ellipse_exp_model
    g = po.annulus_from_terms({(1, 1): 1.0, (0, 0): -1.0},
                              model.szego.omega_flat.bidegree, model.inner_radius)
    sp = split_test_function(g)
    # the oracle's taper [0.70, 0.80] from the same preset at inner radius 0.65,
    # below the working annulus, so its transient stays under the model error at
    # these degrees (the integrand is polynomial in the exterior coordinate, so
    # evaluation there is exact; for a polynomial weight only the inner radius changes)
    m, wd, _rho, M = preset_parts("ellipse-expre")
    tapered = po.build_model(m, wd, model.order, bidegree=M, inner_radius=0.65)
    oracle = dict(zip((16, 32), berezin_expectations(tapered, polys, g.terms(), [16, 32])))
    for order, want in ((1, 2 ** 1.5), (2, 2 ** 2.5)):
        errs = {N: abs(distributional_expectation(model, sp, N, order=order) - oracle[N])
                for N in (16, 32)}
        assert errs[16] / errs[32] >= want, (order, errs)


@pytest.fixture(scope="module")
def quadratic_model():
    return po.build_model(po.disk_map(), po.exp_re_poly_weight([0.0, 0.15, 0.1]),
                          3, bidegree=24, inner_radius=0.5)


def test_quadratic_weight_first_correction(quadratic_model):
    X1 = quadratic_model.coeffs.X[1]
    assert abs(X1.coeff(-1) - 0.15) < 1e-13
    assert abs(X1.coeff(-2) - 0.20) < 1e-13


def test_quadratic_weight_rates(quadratic_model):
    polys = po.boundary_onps(quadratic_model.map, quadratic_model.weight.holo_poly, 32)
    slopes = fitted_slopes(quadratic_model, polys, 2.0, (0, 1, 2), np.arange(8, 33, 4))
    for order, slope in slopes.items():
        assert abs(slope + (order + 1)) <= 0.35, slopes


def test_high_order_refinement_vs_oracle(disk_alpha_oracle):
    # at fixed N each extra pair of correction orders buys roughly N^2
    polys = disk_alpha_oracle
    model = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.3), 6,
                           bidegree=24, inner_radius=0.5)
    assert max(po.hierarchy_residual(model.coeffs, model.szego, p)
               for p in range(1, 7)) <= 1e-9
    z, N = 2.0, 32
    target = polys.monic(z, N)
    errs = [abs(po.monic_eval(model, N, z, order=k) - target) / abs(target)
            for k in (2, 4, 6)]
    assert errs[0] / errs[1] >= N ** 1.5
    assert errs[1] / errs[2] >= N ** 1.5
    assert errs[2] <= 1e-9


def test_truncation_budget_guards_small_grids():
    # at M = 4 the outer factor of the quadratic weight is genuinely
    # under-resolved: E = exp(F) has 1.4e-6 of coefficient mass beyond its
    # circle bandwidth 2M = 8 (M = 8, bandwidth 16, leaves 8e-14 and builds)
    with pytest.raises(po.TruncationOverflowError,
                       match=r"stage: outer-function\] exp has mass 1\.4\d\de-06"):
        po.build_model(po.disk_map(), po.exp_re_poly_weight([0.0, 0.15, 0.1]),
                       3, bidegree=4, inner_radius=0.5)


def test_quadratic_weight_grid_independent():
    # bidegree 18 already resolves the quadratic weight: refining the grid
    # leaves the corrections and the norm constants unchanged
    models = [po.build_model(po.disk_map(), po.exp_re_poly_weight([0.0, 0.15, 0.1]),
                             3, bidegree=M, inner_radius=0.5) for M in (18, 24, 32)]
    for model in models:
        assert abs(model.coeffs.X[1].coeff(-1) - 0.15) < 1e-13
        assert np.max(np.abs(model.norm.d - [0.5, -0.15625, 0.165125])) < 1e-13
        for j in range(1, 4):
            assert (model.coeffs.X[j] - models[-1].coeffs.X[j]).linf() < 1e-13
