import numpy as np
import pytest

import planorth as po
from planorth.errors import TruncationOverflowError
from planorth.hierarchy import weighted_derivative
from planorth.presets import preset_model

from conftest import (random_circle, solve_hierarchy_triangular, terms_jet,
                      weighted_derivative_convolved)

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
        return po.hardy_project(po.CircleSeries(terms_jet(
            po.annulus_from_terms(terms, 4, rho).terms(), 8, 0)[0]))

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
    # the corrections and the norm constants c_p = W_p(0) of the product form
    # against the triangular sum's
    alt = solve_hierarchy_triangular(disk_alpha_model.szego, 4)
    for j in range(5):
        assert (disk_alpha_model.coeffs.X[j] - alt.X[j]).linf() <= 1e-12
    assert np.max(np.abs(disk_alpha_model.coeffs.at_origin - alt.at_origin)) <= 1e-12
    alt_e = solve_hierarchy_triangular(ellipse_exp_model.szego, 3)
    for j in range(4):
        assert (ellipse_exp_model.coeffs.X[j] - alt_e.X[j]).linf() <= 1e-10
    assert np.max(np.abs(ellipse_exp_model.coeffs.at_origin[:3] - alt_e.at_origin)) <= 1e-10


def test_residuals(disk_const_model, disk_alpha_model):
    assert po.hierarchy_residual(disk_const_model.coeffs, disk_const_model.szego, 1) == 0.0
    for p in range(1, 5):
        assert po.hierarchy_residual(disk_alpha_model.coeffs, disk_alpha_model.szego, p) <= 1e-11


def test_residual_sensitivity(disk_alpha_model):
    X = disk_alpha_model.coeffs.stack.copy()
    K = (X.shape[1] - 1) // 2
    X[2, K - 1] += 1e-3
    corrupted = po.HierarchyCoeffs(X, disk_alpha_model.coeffs.at_origin)
    assert po.hierarchy_residual(corrupted, disk_alpha_model.szego, 2) > 1e-4


def test_solver_builds_no_series_and_keeps_one_read_only_stack(monkeypatch):
    # the corrections stay one stack from the solver to every reader: the
    # solve builds no circle series, the norm constants build as many at any
    # order, and X is the stack's rows
    sz = preset_model("ellipse-expre", 0).szego
    built = []
    post_init = po.CircleSeries.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(po.CircleSeries, "__post_init__", counting)
    counts = []
    for order in (0, 2, 4, 6):
        built.clear()
        coeffs = po.solve_hierarchy(sz, order)
        assert not built, order
        po.norm_expansion(sz, coeffs, order)
        counts.append(len(built))
    assert len(set(counts)) == 1, counts
    stack = coeffs.stack
    assert coeffs.order == 6 and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[1, 0] = 1.0
    X = coeffs.X
    assert len(X) == 7
    for j, x in enumerate(X):
        assert np.array_equal(x.coeffs, stack[j]), j


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
        rows = []
        original = hierarchy._apply_T

        def counting(stack, stencil):
            rows.append(stack.shape[0])
            return original(stack, stencil)

        monkeypatch.setattr(hierarchy, "_apply_T", counting)
        got = po.hierarchy_residuals(model.coeffs, model.szego, 4)
        monkeypatch.undo()
        assert got == want, name                 # bit-identical
        assert rows == [1, 2, 3, 4]              # kappa stacked passes, one more row each
    assert po.hierarchy_residuals(model.coeffs, model.szego, 0) == []


def _stencil_inputs(sz, rng):
    """Series at the bandwidth ``K`` of ``F`` whose image under ``T`` stays
    inside ``K``, and one of them given at a narrower and a wider bandwidth."""
    K = sz.F.bandwidth
    f = sparse_circle(rng, K)
    return [sparse_circle(rng, K), f, po.truncate(f, K - 5, "narrow"), po.truncate(f, K + 7, "wide")]


def test_stencil_matches_the_convolution(all_preset_models):
    rng = np.random.default_rng(13)
    for name, model in all_preset_models.items():
        sz = model.szego
        fs = list(model.coeffs.X) + [weighted_derivative(model.coeffs.X[-1], sz)]
        for f in fs + _stencil_inputs(sz, rng):
            want = weighted_derivative_convolved(f, sz)
            got = weighted_derivative(f, sz)
            assert got.bandwidth == sz.F.bandwidth
            assert np.max(np.abs((got - want).coeffs)) <= 1e-15 * want.l1(), name


def test_stencil_matches_the_convolution_for_modes_at_the_bandwidth():
    # a random F with modes at +-K: T of a constant reaches the edge without passing it
    rng = np.random.default_rng(17)
    K = 12
    F = random_circle(rng, K, scale=0.3)
    sz = po.SzegoData(v_exterior=F, v_infinity=0.0, F=F, E=F, inner_radius=0.7,
                      circle_residual=0.0)
    assert F.coeff(K) != 0 and F.coeff(-K) != 0
    for f in (po.circle_from_modes({0: 1.5 - 0.5j}, K), po.circle_from_modes({0: 2.0}, 3)):
        want = weighted_derivative_convolved(f, sz)
        got = weighted_derivative(f, sz)
        assert got.coeff(K) != 0 and got.coeff(-K) != 0
        assert np.max(np.abs((got - want).coeffs)) <= 1e-15 * want.l1()


def test_stencil_refuses_mass_beyond_the_bandwidth(disk_alpha_model):
    from planorth import hierarchy
    sz = disk_alpha_model.szego
    K = sz.F.bandwidth
    message = f"weighted derivative has mass .* beyond bandwidth {K}, above tolerance"
    # F has modes +-1, so z dF/dz carries mode K of f to K + 1
    with pytest.raises(TruncationOverflowError, match=message):
        weighted_derivative(po.circle_from_modes({K: 1.0}, K), sz)
    # a wider input whose own modes lie beyond K
    with pytest.raises(TruncationOverflowError, match=message):
        weighted_derivative(po.circle_from_modes({0: 1.0, -K - 2: 1e-6}, K + 2), sz)
    # in a stack, the one row that overflows is found
    stack = np.zeros((3, 2 * K + 1), dtype=np.complex128)
    stack[:, K] = 1.0
    stack[1, 0] = 1e-3
    with pytest.raises(TruncationOverflowError, match=message):
        hierarchy._apply_T(stack, hierarchy._stencil(sz))
    # mass below TRUNC_TOL is cut silently, as by truncate
    tiny = weighted_derivative(po.circle_from_modes({0: 1.0, K: 1e-16}, K), sz)
    assert tiny.bandwidth == K


def test_hierarchy_order_guards(disk_alpha_model):
    szego, coeffs = disk_alpha_model.szego, disk_alpha_model.coeffs
    with pytest.raises(ValueError, match="order must be >= 0"):
        po.solve_hierarchy(szego, -1)
    for upto in (-1, coeffs.order + 1):
        with pytest.raises(ValueError, match="need 0 <= upto <= order"):
            po.hierarchy_residuals(coeffs, szego, upto)
    for p in (0, coeffs.order + 1):
        with pytest.raises(ValueError, match="need 1 <= p <= order"):
            po.hierarchy_residual(coeffs, szego, p)
