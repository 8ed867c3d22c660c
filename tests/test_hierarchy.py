import numpy as np
import pytest

import planorth as po
from planorth.errors import ConsistencyError
from planorth.hierarchy import weighted_derivative

from conftest import random_circle

ALPHA = 0.3
EPS = np.finfo(float).eps


def circle_one(model):
    return po.circle_from_modes({0: 1.0}, model.szego.F.bandwidth)


def test_weighted_derivative_flat_weight(disk_const_model):
    sz = disk_const_model.szego
    # with flattened weight identically one: T f = z df/dz + f; constants are fixed
    one = circle_one(disk_const_model)
    t1 = weighted_derivative(one, sz)
    assert np.max(np.abs((t1 - one).coeffs)) < 1e-14
    rng = np.random.default_rng(2)
    K = sz.F.bandwidth
    f = random_circle(rng, K, scale=0.2)
    lhs = weighted_derivative(f, sz)
    rhs = po.CircleSeries(f.coeffs * (np.arange(-K, K + 1) + 1))
    assert np.max(np.abs((lhs - rhs).coeffs)) < 1e-12


def test_weighted_derivative_disk_alpha(disk_alpha_model):
    t1 = weighted_derivative(circle_one(disk_alpha_model), disk_alpha_model.szego)
    assert abs(t1.coeff(0) - 1.0) < 1e-12
    assert abs(t1.coeff(1) - ALPHA) < 1e-12
    assert abs(t1.coeff(-1) - ALPHA) < 1e-12
    others = sum(abs(t1.coeff(k)) for k in range(-8, 9) if k not in (-1, 0, 1))
    assert others < 1e-12


def sparse_circle(rng, bandwidth, terms=6, span=3):
    modes = {}
    for _ in range(terms):
        modes[int(rng.integers(-span, span + 1))] = complex(rng.standard_normal(),
                                                            rng.standard_normal())
    return po.circle_from_modes(modes, bandwidth)


def test_weighted_derivative_linear(disk_alpha_model):
    sz = disk_alpha_model.szego
    rng = np.random.default_rng(8)
    f = sparse_circle(rng, sz.F.bandwidth)
    g = sparse_circle(rng, sz.F.bandwidth)
    lhs = weighted_derivative(f + g, sz)
    rhs = weighted_derivative(f, sz) + weighted_derivative(g, sz)
    assert np.max(np.abs((lhs - rhs).coeffs)) <= 1e-12 * max(1.0, lhs.l1())


def omega_direct(model, z):
    """The flattened weight from its definition, ``omega(psi(z)) |exp(V(z))|^2``."""
    return (model.weight.omega(model.map.psi(z))
            * np.abs(np.exp(model.szego.v_exterior.evaluate(z))) ** 2)


def product_form_T(f, model, z, h=1e-3):
    """Reference ``(1/Omega)(z d/dz + 1)(f Omega)`` at annulus points ``z``, with
    ``Omega`` from :func:`omega_direct` and ``d/dz = (d/dx - i d/dy)/2`` by
    fourth-order central differences."""
    def g(w):
        return f.evaluate(w) * omega_direct(model, w)

    def diff(step):
        return (-g(z + 2 * step) + 8 * g(z + step) - 8 * g(z - step) + g(z - 2 * step)) / (12 * h)

    dz = 0.5 * (diff(h) - 1j * diff(1j * h))
    return (z * dz + g(z)) / omega_direct(model, z)


def test_weighted_derivative_matches_product_form(all_preset_models):
    rng = np.random.default_rng(5)
    z = np.concatenate([r * np.exp(2j * np.pi * (np.arange(16) + 0.3) / 16)
                        for r in (0.9, 1.0, 1.1)])
    for name, model in all_preset_models.items():
        sz = model.szego
        fs = list(model.coeffs.X) + [sparse_circle(rng, sz.F.bandwidth)]
        for f in fs:
            ref = product_form_T(f, model, z)
            got = weighted_derivative(f, sz).evaluate(z)
            assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref))), name


def test_exterior_projection_cases(disk_const_model):
    rho = disk_const_model.inner_radius

    def project(terms):
        return po.hardy_project(po.CircleSeries(po.annulus_from_terms(terms, 4, rho).jet(0)[0]))

    assert project({(0, 0): 1.0}).l2() == 0.0
    assert project({(2, 1): 1.0}).l2() == 0.0
    q = project({(1, 2): 1.0})
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
        K = sz.F.bandwidth
        expect = po.hardy_project(po.CircleSeries(sz.F.coeffs * np.arange(-K, K + 1)))
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


def test_neumann_partial_sum_is_the_sequential_sum(all_preset_models):
    for name, model in all_preset_models.items():
        X = model.coeffs.X
        for N in (4, 37, 10 ** 4):
            for order in range(model.order + 1):
                want, mass = X[0].coeffs, np.abs(X[0].coeffs)
                for j in range(1, order + 1):
                    want = want + X[j].coeffs * float(N) ** -j
                    mass = mass + np.abs(X[j].coeffs) * float(N) ** -j
                got = po.neumann_partial_sum(model.coeffs, N, order).coeffs
                # a few ulps of the summed magnitudes, mode by mode
                assert np.all(np.abs(got - want) <= 4 * EPS * mass), (name, N, order)


def test_corrections_share_one_bandwidth(disk_alpha_model):
    X = list(disk_alpha_model.coeffs.X)
    X[1] = po.truncate(X[1], X[1].bandwidth + 1, "test")
    with pytest.raises(ConsistencyError, match="bandwidth"):
        po.HierarchyCoeffs(order=disk_alpha_model.order, X=tuple(X))


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


def _residual_per_order(coeffs, szego, p):
    """The order-``p`` residual rebuilt from scratch: every ``T^(p-l) X_l``
    from ``X_l``."""
    total = None
    for l in range(p + 1):
        a = coeffs.X[l]
        for _ in range(p - l):
            a = weighted_derivative(a, szego)
        term = a * ((-1.0) ** (p - l))
        total = term if total is None else total + term
    K = total.bandwidth
    return float(np.max(np.abs(total.coeffs[:K]))) if K else 0.0


def test_one_pass_residuals_are_the_per_order_ones(all_preset_models, monkeypatch):
    from planorth import hierarchy
    for name, model in all_preset_models.items():
        want = [_residual_per_order(model.coeffs, model.szego, p) for p in range(1, 5)]
        calls = []
        original = hierarchy.weighted_derivative

        def counting(f, szego):
            calls.append(1)
            return original(f, szego)

        monkeypatch.setattr(hierarchy, "weighted_derivative", counting)
        got = po.hierarchy_residuals(model.coeffs, model.szego, 4)
        monkeypatch.undo()
        assert got == want, name                 # bit-identical
        assert len(calls) == 4 * 5 // 2          # kappa (kappa + 1) / 2, not ... (kappa + 2) / 6
    assert po.hierarchy_residuals(model.coeffs, model.szego, 0) == []
