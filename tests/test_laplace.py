import dataclasses
import math

import numpy as np
import pytest

import planorth as po
from planorth import laplace
from planorth.laplace import _moment_table, _product_stack, _ps_power
from planorth.presets import PRESETS, preset_model

from conftest import conv2_reference, grid_restrictions, szego_of


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


def _binomial_power(c, alpha):
    """``c^alpha`` to the order of ``c`` by the binomial series
    ``c_0^alpha sum_k binom(alpha, k) u^k`` in ``u = c/c_0 - 1``, whose
    ``k``-th power starts at ``x^k``: truncated products only."""
    u = c / c[0]
    u[0] = 0.0
    out, power, binom = np.zeros(c.size), np.eye(1, c.size)[0], 1.0
    for k in range(c.size):
        out += binom * power
        power = np.convolve(power, u)[:c.size]
        binom *= (alpha - k) / (k + 1)
    return c[0] ** alpha * out


@pytest.mark.parametrize("alpha", [-0.5, 0.5, -2.0])
def test_power_series_power_matches_binomial_series(alpha):
    rng = np.random.default_rng(12)
    for c0 in (1.0, 0.7, 1.8):
        c = np.concatenate([[c0], 0.3 * rng.standard_normal(6)])
        want = _binomial_power(c, alpha)
        assert np.max(np.abs(_ps_power(c, alpha) - want)) <= 1e-14 * np.max(np.abs(want))
    # (1 + x)^alpha: the binomial coefficients themselves
    binoms = np.cumprod([1.0] + [(alpha - k) / (k + 1) for k in range(5)])
    assert np.max(np.abs(_ps_power(np.array([1.0, 1.0, 0, 0, 0, 0]), alpha) - binoms)) <= 1e-15


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
    polys = disk_alpha_oracle
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
    ``X_j conj(X_k)`` of each total order, multiply by the bi-Laurent grid of
    ``Omega`` (a 2-D convolution) and apply ``(-(r d/dr) - 2)`` once per
    derivative, weighting the ``m``-th by ``2^-m``."""
    order = model.order
    omega = model.szego.omega_flat.coeffs
    X = [x.coeffs for x in model.coeffs.X]
    c = np.zeros(order + 1, dtype=np.complex128)
    for q in range(order + 1):
        prod = sum(np.outer(X[j], np.conj(X[q - j])) for j in range(q + 1))
        a = conv2_reference(prod, omega)
        m = np.arange(a.shape[0]) - (a.shape[0] - 1) // 2
        for k in range(order - q + 1):
            c[q + k] += (0.5 ** k) * np.trace(a)  # mode 0 of the restriction
            a = a * (-(m[:, None] + m[None, :]) - 2.0)
    return c.real, _binomial_power(c.real, -0.5)


def test_norm_expansion_matches_product_form(all_preset_models):
    # the moment table reads c_p off L^m = 2^-m (-(r d/dr) - 2)^m
    for name, model in all_preset_models.items():
        c, d = _product_form_norm_series(model)
        assert np.max(np.abs(model.norm.raw - c[1:])) <= 1e-13, name
        assert np.max(np.abs(model.norm.d - d[1:])) <= 1e-13, name
        J = model.order + 1
        assert model.moments.shape[:3] == (J, J, J), name
        assert model.moments.shape[3] % 2 == 1, name


def test_moment_table_drops_no_mass():
    # X_1 conj(X_0) Omega carries 1.3e-13 beyond bidegree 24 here; the table
    # keeps the whole product (only its restriction is stored), so the build
    # neither trips the truncation guard nor loses that mass
    m = po.ExteriorMap(1.0, [0.0, 0.0, 0.0, complex(-0.0765155848155947, 0.08851194992952947)])
    w = po.exp_re_poly_weight([0.0, complex(0.003318991724478022, 0.4895720831212811),
                               complex(-0.3231695246045201, 0.24617173043809984)])
    model = po.build_model(m, w, 1, bidegree=24, inner_radius=0.8682)
    assert abs(model.norm.d[0] - 0.5) <= 1e-14


@pytest.mark.parametrize("name", list(PRESETS))
def test_product_stack_is_the_per_row_products(name):
    # reference: each X_j at its own least bandwidth times E, centred in the
    # widest product; the stack cut once must give the same bits
    model = preset_model(name, 6)
    E = model.szego.E.trimmed().coeffs
    for order in range(7):
        A = [np.convolve(x.trimmed().coeffs, E) for x in model.coeffs.X[:order + 1]]
        S = max((a.size - 1) // 2 for a in A)
        want = np.zeros((order + 1, 2 * S + 1), dtype=np.complex128)
        for j, a in enumerate(A):
            want[j, S - (a.size - 1) // 2:S + (a.size + 1) // 2] = a
        got = _product_stack(model.szego, model.coeffs, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, order)


def _outer_product_moments(model, j, k, order):
    """``R L^mu (A_j conj(A_k))`` for ``mu <= order`` from the 2-D outer
    product of ``A_j = X_j E`` and ``conj(A_k)``, both padded to the larger
    bandwidth: the moment table as first built, a row at a time."""
    E = model.szego.E.trimmed()
    aj, ak = (x.trimmed() * E for x in (model.coeffs.X[j], model.coeffs.X[k]))
    S = max(aj.bandwidth, ak.bandwidth)
    a, b = (np.pad(x.coeffs, S - x.bandwidth) for x in (aj, ak))
    return grid_restrictions(np.outer(a, np.conj(b)), 1.0, order)


@pytest.mark.parametrize("name", ["disk-const", "disk-expre03", "ellipse-const",
                                  "ellipse-expre", "perturbed-expre", "disk-complex"])
def test_moment_table_matches_outer_product_radial_moments(name):
    # each weighted 1-D correlation against the diagonal sums of the 2-D outer
    # product; modes beyond the pair's own band, and pairs with j + k > order,
    # are exactly zero
    for order in range(1, 5):
        if name == "disk-complex":
            model = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.2 + 0.2j),
                                   order, bidegree=16, inner_radius=0.5)
        else:
            model = preset_model(name, order)
        B = model.moments
        centre = (B.shape[-1] - 1) // 2
        assert B.shape == (order + 1, order + 1, order + 1, 2 * centre + 1)
        for j in range(order + 1):
            assert not np.any(B[j, order + 1 - j:]), (name, order, j)
            for k in range(order + 1 - j):
                for mu, want in enumerate(_outer_product_moments(model, j, k, order)):
                    K = (want.size - 1) // 2
                    got = B[j, k, mu]
                    band = got[centre - K:centre + K + 1]
                    dev = np.max(np.abs(band - want))
                    assert dev <= 1e-14 * max(np.sum(np.abs(want)), 1e-300), \
                        (name, order, j, k, mu)
                    assert not np.any(got[:centre - K]) and not np.any(got[centre + K + 1:]), \
                        (name, order, j, k, mu)


def _direct_correlation(model):
    """``sum_n A_j[n+p] conj(A_k[n]) (-(2n+p)/2 - 1)^mu`` term by term, with
    ``A_j = X_j E`` from the trimmed factors, for ``j + k <= order``, ``mu <= order``:
    ``{(j, k): (modes p, rows [mu, p])}``."""
    order = model.order
    A = [(x.trimmed() * model.szego.E.trimmed()).coeffs for x in model.coeffs.X[:order + 1]]
    out = {}
    for j in range(order + 1):
        for k in range(order + 1 - j):
            a, b = A[j], A[k]
            Ka, Kb = (a.size - 1) // 2, (b.size - 1) // 2
            ps = np.arange(-(Ka + Kb), Ka + Kb + 1)
            rows = np.zeros((order + 1, ps.size), dtype=np.complex128)
            for i, p in enumerate(ps):
                n = np.arange(max(-Kb, -Ka - p), min(Kb, Ka - p) + 1)
                terms = a[Ka + n + p] * np.conj(b[Kb + n])
                for mu in range(order + 1):
                    rows[mu, i] = np.sum(terms * (-(2 * n + p) / 2.0 - 1.0) ** mu)
            out[j, k] = ps, rows
    return out


def test_expand_builds_no_moment_table(monkeypatch):
    # the norm constants read c_p = W_p(0) off the solver and no part of the
    # table; the products A_j = X_j E and the whole table wait for a read
    def forbidden(*args, **kwargs):
        raise AssertionError("a product stack or moment table formed inside build_model")

    monkeypatch.setattr(laplace, "_moment_table", forbidden)
    monkeypatch.setattr(laplace, "_product_stack", forbidden)
    models = [preset_model(name, 8) for name in PRESETS]
    monkeypatch.undo()
    assert all(not {"products", "moments"} & set(m.__dict__) for m in models)
    model = preset_model("ellipse-expre", 4)
    B = model.moments
    assert "moments" in model.__dict__ and model.moments is B
    A = model.products
    assert np.array_equal(A, _product_stack(model.szego, model.coeffs, 4))
    assert model.products is A


def test_lazy_moment_table_matches_direct_correlation(all_preset_models):
    models = dict(all_preset_models)
    models["perturbed-expre"] = preset_model("perturbed-expre", 4)
    models["disk-complex"] = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.2 + 0.2j),
                                            4, bidegree=16, inner_radius=0.5)
    for name, model in models.items():
        B = model.moments
        centre = (B.shape[-1] - 1) // 2
        for (j, k), (ps, want) in _direct_correlation(model).items():
            inside = np.abs(ps) <= centre
            # modes beyond the table's span are exactly zero in the direct sum
            assert not np.any(want[:, ~inside]), (name, j, k)
            got = B[j, k][:, ps[inside] + centre]
            for mu in range(model.order + 1):
                scale = max(np.max(np.abs(want[mu])), 1e-300)
                assert np.max(np.abs(got[mu] - want[mu, inside])) <= 1e-13 * scale, \
                    (name, j, k, mu)


def test_mode0_kernel_is_the_table_centre(all_preset_models):
    # the reference Watson sum's P = 0 call and the full table are one formula
    for name, model in all_preset_models.items():
        B = model.moments
        mode0 = _moment_table(model.products, 0)
        assert mode0.shape == B.shape[:3] + (1,), name
        centre = B[..., (B.shape[-1] - 1) // 2]
        assert np.max(np.abs(mode0[..., 0] - centre)) <= 1e-15 * np.max(np.abs(centre)), name


def _watson_mode0(stack, order):
    """``c_p = sum_{j+k+m=p} B[j, k, m]`` over circle mode 0 of the moment
    table of ``stack``: the Watson sum by the area integral, which
    ``norm_expansion`` took before it read ``c_p = W_p(0)`` off the solver,
    kept as the reference."""
    mode0 = _moment_table(stack, 0)[..., 0].real
    c = np.zeros(order + 1)
    for j in range(order + 1):
        for k in range(order + 1 - j):
            for m in range(order + 1 - j - k):
                c[j + k + m] += mode0[j, k, m]
    return c


def _assert_solver_c_is_the_watson_sum(sz, coeffs, label):
    for order in range(coeffs.order + 1):
        norm = po.norm_expansion(sz, coeffs, order)
        want = _watson_mode0(_product_stack(sz, coeffs, order), order)
        got = np.concatenate([[1.0], norm.raw])
        dev = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert dev.max() <= 1e-14, (label, order, dev.max())
        assert np.array_equal(norm.d, _ps_power(got, -0.5)[1:]), (label, order)


def test_solver_c_is_the_watson_sum_on_the_presets():
    for name in PRESETS:
        model = preset_model(name, 8)
        _assert_solver_c_is_the_watson_sum(model.szego, model.coeffs, name)


def test_solver_c_is_the_watson_sum_on_random_pullbacks():
    # real log-weight pullbacks with one to three modes, mode k at most 0.5/k
    # in modulus, so that T^8 stays inside the bandwidth 32
    K = 32
    for seed in range(50):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        a = 0.5 * rng.random(q) / np.arange(1, q + 1) * np.exp(2j * np.pi * rng.random(q))
        h = np.zeros(2 * K + 1, dtype=np.complex128)
        h[K + 1:K + 1 + q] = a
        h[K - q:K] = np.conj(a)[::-1]
        h[K] = rng.standard_normal()
        sz = szego_of(po.CircleSeries(h))
        _assert_solver_c_is_the_watson_sum(sz, po.solve_hierarchy(sz, 8), seed)


def test_products_are_read_from_the_model_coeffs():
    # the products and the table belong to the model: one whose coefficients
    # are replaced builds them from the new ones, not from a kept copy
    model = preset_model("ellipse-expre", 2)
    A, B = model.products, model.moments
    other = dataclasses.replace(
        model, coeffs=dataclasses.replace(model.coeffs, stack=-model.coeffs.stack))
    assert np.array_equal(other.products, -A)
    assert other.moments is not B


def test_norm_expansion_refuses_a_negative_order(disk_alpha_model):
    with pytest.raises(ValueError, match="order must be >= 0"):
        po.norm_expansion(disk_alpha_model.szego, disk_alpha_model.coeffs, -1)


@pytest.mark.parametrize("derivs, tail, msg", [
    ([], 0.0, "jet must be a nonempty 1-D sequence"),
    ([[1.0, 2.0]], 0.0, "jet must be a nonempty 1-D sequence"),
    ([1.0], -1.0, "tail bound must be finite and nonnegative"),
    ([1.0], math.inf, "tail bound must be finite and nonnegative")])
def test_jet_guards(derivs, tail, msg):
    with pytest.raises(ValueError, match=msg):
        po.JetAtZero(derivs, tail)


def test_watson_sum_needs_a_positive_lambda():
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="lambda must be positive"):
            po.watson_sum(po.JetAtZero([1.0], 0.0), lam)
