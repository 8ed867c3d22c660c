import numpy as np

import planorth as po
from planorth.hierarchy import exterior_projection, weighted_derivative
from planorth.series import lift_holomorphic

from conftest import random_annulus

ALPHA = 0.3


def lifted_one(model):
    M = model.szego.omega_flat.bidegree
    return lift_holomorphic(po.circle_from_modes({0: 1.0}, 2 * M), M, model.inner_radius)


def test_weighted_derivative_flat_weight(disk_const_model):
    sz = disk_const_model.szego
    # with flattened weight identically one: T f = z df/dz + f; constants are fixed
    one = lifted_one(disk_const_model)
    t1 = weighted_derivative(one, sz)
    assert np.max(np.abs((t1 - one).coeffs)) < 1e-14
    rng = np.random.default_rng(2)
    f = random_annulus(rng, sz.omega_flat.bidegree, disk_const_model.inner_radius, scale=0.2)
    lhs = weighted_derivative(f, sz)
    rhs = po.wirtinger_z(f) + f
    assert np.max(np.abs((lhs - rhs).coeffs)) < 1e-12


def test_weighted_derivative_disk_alpha(disk_alpha_model):
    t1 = po.restrict_to_circle(weighted_derivative(lifted_one(disk_alpha_model),
                                                   disk_alpha_model.szego))
    assert abs(t1.coeff(0) - 1.0) < 1e-12
    assert abs(t1.coeff(1) - ALPHA) < 1e-12
    assert abs(t1.coeff(-1) - ALPHA) < 1e-12
    others = sum(abs(t1.coeff(k)) for k in range(-8, 9) if k not in (-1, 0, 1))
    assert others < 1e-12


def sparse_annulus(rng, bidegree, inner_radius, terms=6, span=3):
    grid = {}
    for _ in range(terms):
        m, n = rng.integers(-span, span + 1, size=2)
        grid[(int(m), int(n))] = complex(rng.standard_normal(), rng.standard_normal())
    return po.annulus_from_terms(grid, bidegree, inner_radius)


def test_weighted_derivative_linear(disk_alpha_model):
    sz = disk_alpha_model.szego
    rng = np.random.default_rng(8)
    M = sz.omega_flat.bidegree
    f = sparse_annulus(rng, M, disk_alpha_model.inner_radius)
    g = sparse_annulus(rng, M, disk_alpha_model.inner_radius)
    lhs = weighted_derivative(f + g, sz)
    rhs = weighted_derivative(f, sz) + weighted_derivative(g, sz)
    assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-12 * max(1.0, lhs.l1())


def product_form_T(f, sz):
    """Reference ``(1/Omega)(z d/dz + 1)(f Omega)`` by truncated products with
    ``Omega`` and with its reciprocal ``exp(-U)``."""
    M = sz.omega_flat.bidegree
    omega_inv = po.series_exp(-sz.log_omega_flat, cap=M)
    fo = po.multiply(f, sz.omega_flat, cap=M)
    return po.multiply(po.wirtinger_z(fo) + fo, omega_inv, cap=M)


def test_weighted_derivative_matches_product_form(all_preset_models):
    rng = np.random.default_rng(5)
    for name, model in all_preset_models.items():
        sz, rho = model.szego, model.inner_radius
        M = sz.omega_flat.bidegree
        fs = [lift_holomorphic(X, M, rho) for X in model.coeffs.X]
        fs.append(sparse_annulus(rng, M, rho))
        for f in fs:
            ref = product_form_T(f, sz)
            assert (weighted_derivative(f, sz) - ref).l1() <= 1e-12 * ref.l1(), name


def test_exterior_projection_cases(disk_const_model):
    rho = disk_const_model.inner_radius
    assert exterior_projection(po.annulus_constant(1.0, 4, rho)).l2() == 0.0
    assert exterior_projection(po.annulus_from_terms({(2, 1): 1.0}, 4, rho)).l2() == 0.0
    q = exterior_projection(po.annulus_from_terms({(1, 2): 1.0}, 4, rho))
    assert q.coeff(-1) == 1.0 and q.l2() == 1.0


def test_hierarchy_flat_weight_degenerates(disk_const_model, ellipse_const_model):
    for model in (disk_const_model, ellipse_const_model):
        for j in range(1, model.order + 1):
            assert np.max(np.abs(model.coeffs.X[j].coeffs)) == 0.0


def test_hierarchy_disk_alpha_values(disk_alpha_model):
    X = disk_alpha_model.coeffs.X
    # closed forms obtained by running the recursion by hand on the two-mode log-weight
    expected = {1: ALPHA, 2: -ALPHA, 3: ALPHA + ALPHA ** 3}
    for j, val in expected.items():
        assert abs(X[j].coeff(-1) - val) < 1e-13
        others = max(abs(X[j].coeff(k)) for k in range(-X[j].bandwidth, X[j].bandwidth + 1)
                     if k != -1)
        assert others < 1e-14


def test_first_correction_is_projected_log_derivative(all_preset_models):
    for name, model in all_preset_models.items():
        sz = model.szego
        expect = po.hardy_project(po.restrict_to_circle(po.wirtinger_z(sz.log_omega_flat)))
        diff = (model.coeffs.X[1] - expect).linf()
        assert diff < 1e-11, name


def test_solver_agreement(disk_alpha_model, ellipse_exp_model):
    alt = po.solve_hierarchy_triangular(disk_alpha_model.szego, 4)
    for j in range(5):
        assert (disk_alpha_model.coeffs.X[j] - alt.X[j]).linf() <= 1e-12
    alt_e = po.solve_hierarchy_triangular(ellipse_exp_model.szego, 3)
    for j in range(4):
        assert (ellipse_exp_model.coeffs.X[j] - alt_e.X[j]).linf() <= 1e-10


def test_residuals(disk_const_model, disk_alpha_model):
    assert po.hierarchy_residual(disk_const_model.coeffs, disk_const_model.szego, 1) == 0.0
    for p in range(1, 5):
        assert po.hierarchy_residual(disk_alpha_model.coeffs, disk_alpha_model.szego, p) <= 1e-11


def test_residual_sensitivity(disk_alpha_model):
    X = list(disk_alpha_model.coeffs.X)
    K = X[2].bandwidth
    bump = po.circle_from_modes({-1: 1e-3}, K, "exterior-vanishing")
    X[2] = po.hardy_project(X[2] + bump)
    corrupted = po.HierarchyCoeffs(order=disk_alpha_model.order, X=tuple(X))
    assert po.hierarchy_residual(corrupted, disk_alpha_model.szego, 2) > 1e-4


def test_neumann_partial_sum(disk_const_model, disk_alpha_model):
    s0 = po.neumann_partial_sum(disk_alpha_model.coeffs, 10, order=0)
    assert s0.coeff(0) == 1.0 and s0.l2() == 1.0
    sc = po.neumann_partial_sum(disk_const_model.coeffs, 17, order=4)
    assert sc.coeff(0) == 1.0 and sc.l2() == 1.0
    s1 = po.neumann_partial_sum(disk_alpha_model.coeffs, 10, order=1)
    assert abs(s1.coeff(-1) - ALPHA / 10) < 1e-14
    assert abs(s1.coeff(0) - 1.0) < 1e-14


def test_residuals_at_reference_caps():
    # residual invariant at the reference truncation sizes M = 32, K = 64
    model = po.build_model(po.ellipse_map(2, 1), po.exp_re_linear_weight(0.5),
                           4, bidegree=32, inner_radius=0.75)
    for p in range(1, 5):
        assert po.hierarchy_residual(model.coeffs, model.szego, p) <= 1e-9


def test_order_zero_model_roundtrip():
    m0 = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.3), 0,
                        bidegree=12, inner_radius=0.5)
    assert m0.norm.d.size == 0
    assert po.leading_coeff(m0, 16) == 4.0
    assert abs(po.monic_eval(m0, 16, 2.0)) > 0


def test_weight_scaling_leaves_corrections(disk_alpha_model):
    scaled = po.build_model(po.disk_map(),
                            po.exp_re_poly_weight([0.5 * np.log(7.0), ALPHA]),
                            4, bidegree=24, inner_radius=0.5)
    for j in range(5):
        assert (scaled.coeffs.X[j] - disk_alpha_model.coeffs.X[j]).linf() <= 1e-12


def test_reflection_symmetry_on_ellipse():
    alpha = 0.3 + 0.2j
    base = po.build_model(po.ellipse_map(2, 1), po.exp_re_linear_weight(alpha),
                          3, bidegree=24, inner_radius=0.75)
    refl = po.build_model(po.ellipse_map(2, 1), po.exp_re_linear_weight(np.conj(alpha)),
                          3, bidegree=24, inner_radius=0.75)
    for j in range(1, 4):
        a = base.coeffs.X[j].coeffs
        b = refl.coeffs.X[j].coeffs
        assert np.max(np.abs(b - np.conj(a))) <= 1e-12
