import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planorth as po
from planorth import distributional, laplace, series
from planorth.distributional import (distributional_expectation, distributional_expectations,
                                     distributional_terms, split_terms, split_test_function)
from planorth.oracle import berezin_expectations

from conftest import (CountingNumpy, conv2_reference, dense_boundary_terms,
                      grid_restrictions, padded_zero_part, random_annulus, zero_jet)


def _l1(g):
    return float(np.sum(np.abs(g.coeffs)))


def test_split_constant(disk_alpha_model):
    g = po.annulus_from_terms({(0, 0): 1.0}, 8, disk_alpha_model.inner_radius)
    sp = split_test_function(g)
    assert sp.plus_infinity == 1.0
    assert not np.any(zero_jet(sp.terms, 4, 16))


def test_split_mode_bookkeeping(disk_alpha_model):
    # g = z + 1/z: g_+ = 1/z, g_- = 1/conj(z), g_0 = z - 1/conj(z)
    rho = disk_alpha_model.inner_radius
    g = po.annulus_from_terms({(1, 0): 1.0, (-1, 0): 1.0}, 6, rho)
    sp = split_test_function(g)
    assert sp.plus_infinity == 0.0
    jet, K = zero_jet(sp.terms, 2, 12), 12
    # mode 1: (-1/2)^nu from z less (1/2)^nu from 1/conj(z); mode -1 cancels
    assert list(jet[:, K + 1]) == [0.0, -1.0, 0.0]
    jet[:, K + 1] = 0.0
    assert not np.any(jet)


def test_split_reassembly(disk_alpha_model):
    # on the circle g = g_+ + g_-, whose circle mean is g_+(inf) since g_-
    # has no constant mode, and g_0 has no mode there
    rng = np.random.default_rng(19)
    rho = disk_alpha_model.inner_radius
    g = random_annulus(rng, 8, rho)
    sp = split_test_function(g)
    zs = np.exp(2j * np.pi * np.arange(36) / 36)
    assert abs(np.mean(g.evaluate(zs)) - sp.plus_infinity) <= 1e-12 * max(1.0, _l1(g))
    assert not np.any(zero_jet(sp.terms, 3, 16)[0])


def test_zero_jet_hand_values(disk_alpha_model):
    rho = disk_alpha_model.inner_radius
    # |z|^2 - 1: m + n = 2 on the one term that survives, so (-1)^nu at mode 0
    sp = split_test_function(po.annulus_from_terms({(1, 1): 1.0, (0, 0): -1.0}, 1, rho))
    jet = zero_jet(sp.terms, 5, 2)
    assert list(jet[:, 2]) == [0.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    jet[:, 2] = 0.0
    assert not np.any(jet)
    # an exterior-holomorphic plus a conjugate-holomorphic part: no g_0
    sp = split_test_function(po.annulus_from_terms({(-1, 0): 1.0, (0, -2): 1.0}, 2, rho))
    assert not np.any(zero_jet(sp.terms, 5, 4))


@given(st.integers(0, 5), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.integers(0, 6))
def test_zero_jet_matches_the_padded_grid(M, seed, density, order):
    # the jet of g_0 taken from the jet of g, against the jets of g_0 built
    # as a padded grid; row 0, the restriction of g_0, is exactly zero
    rng = np.random.default_rng(seed)
    side = 2 * M + 1
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    grid[rng.random((side, side)) > density] = 0.0
    g = po.AnnulusSeries(grid, 0.5)
    got = zero_jet(g.terms(), order, 2 * M)
    assert not np.any(got[0])
    # the padded grid reaches modes |p| <= 4M, of which those beyond 2M are zero
    want = grid_restrictions(padded_zero_part(g), 0.0, order)[:, 2 * M:6 * M + 1]
    scale = (1.0 + 2.0 * _l1(g)) * max(1, M) ** order
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_w_operator_hand_value(disk_const_model):
    # the flat disk: X_j = 0 for j >= 1 and B[0, 0, mu] = (-1)^mu at mode 0, so
    # W(1) at order 2 is 1 + (1/N) * binom(2,1) * (-1) = 0.8 at N = 10; with the
    # jet (-1)^nu of |z|^2 - 1 the terms are -0.8/N and 1/N^2
    terms = dict(distributional_terms(disk_const_model, split_terms({(1, 1): 1.0, (0, 0): -1.0}),
                                      10, order=2))
    assert list(terms) == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert terms[(1, 0, 0)] == pytest.approx(-0.08, abs=1e-16)
    assert terms[(2, 0, 0)] == pytest.approx(0.01, abs=1e-16)
    assert terms[(1, 0, 1)] == terms[(1, 1, 0)] == 0.0


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
    oracle = dict(zip((16, 32), berezin_expectations(model, polys, g.terms(), [16, 32])))
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
    for N, o in zip((16, 32), berezin_expectations(model, polys, g.terms(), [16, 32])):
        assert distributional_expectation(model, sp, N, order=2) == 0.0
        assert abs(o) <= 0.5 / N


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


def _circle_mean(u, v):
    """Circle integral of a product against normalized arc length: mode 0 of
    ``u v``, both centred arrays of circle modes."""
    Ku, Kv = (u.size - 1) // 2, (v.size - 1) // 2
    K = min(Ku, Kv)
    return complex(np.dot(u[Ku - K:Ku + K + 1], v[Kv - K:Kv + K + 1][::-1]))


def _w_combination(moments, N, nu, order):
    """``sum_{mu<=order-nu} N^-mu C(nu+mu, nu) moments[mu]``: the weighted
    boundary operator on ``X_j conj(X_k)`` from ``moments = B[j, k]``."""
    w = [math.comb(nu + mu, nu) * float(N) ** (-mu) for mu in range(order - nu + 1)]
    return w @ moments[:order - nu + 1]


def test_circle_mean_pairing():
    # the reference pairing of test_terms_match_per_call_form
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
    # every row of the moment table, combined into W, against the radial chain:
    # the table the contraction reads, checked apart from it
    for name, model in all_preset_models.items():
        for j in range(model.order + 1):
            for k in range(model.order + 1 - j):
                a = _correction_product(model, j, k)
                for nu in (1, 2, 4):
                    got = _w_combination(model.moments[j, k], 17, nu, 4)
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
    table = disk_alpha_model.moments

    def forbidden(*args, **kwargs):
        raise AssertionError("a product with Omega formed inside a request")

    monkeypatch.setattr(laplace, "_moment_table", forbidden)
    monkeypatch.setattr(laplace, "_product_stack", forbidden)
    assert np.isfinite(distributional_expectation(disk_alpha_model, split, 20))
    assert disk_alpha_model.moments is table


@st.composite
def term_rows(draw):
    """``{(m, n): c}`` over a few indices near the circle, the pairs in draw order."""
    pairs = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=1, max_size=8, unique=True))
    coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    return {mn: draw(coeff) for mn in pairs}


@settings(max_examples=50)
@given(st.sampled_from(["disk-expre03", "ellipse-expre", "perturbed-expre"]), term_rows(),
       st.randoms(use_true_random=False), st.integers(0, 3), st.integers(8, 1000),
       st.integers(1, 10 ** 6), st.integers(-4, 4), st.booleans())
def test_expectation_ignores_row_order_zero_rows_and_far_terms(all_preset_models, name, rows,
                                                               rnd, zeros, N, reach, n, below):
    model = all_preset_models[name]
    want = distributional_expectation(model, split_terms(rows), N)
    l1 = sum(abs(c) for c in rows.values())
    # the rows shuffled, with zero-coefficient rows among them
    items = list(rows.items()) + [((5 + i, -5 - i), 0.0) for i in range(zeros)]
    rnd.shuffle(items)
    got = distributional_expectation(model, split_terms(dict(items)), N)
    assert abs(got - want) <= 1e-14 * l1
    # a term past the moment table's bandwidth C meets only modes of B that are 0
    C = (model.moments.shape[-1] - 1) // 2
    far = {**rows, (n + (-1) ** below * (C + reach), n): 1e6}
    assert distributional_expectation(model, split_terms(far), N) == want


def test_expectation_beyond_the_float_range_is_typed(ellipse_exp_model):
    big = split_terms({(0, 0): 1e308, (1, 1): 1e308})
    with pytest.raises(po.NonFiniteError, match="out of float range at degree 16"):
        distributional_expectation(ellipse_exp_model, big, 16)


def test_expectations_make_one_table_product(disk_alpha_model, monkeypatch):
    # a batch of degrees pairs the terms' jet weights with the moment table's
    # columns in one matrix product, and each degree reads as the
    # single-degree form
    model = disk_alpha_model
    model.moments   # built on the first request, not counted here
    split = split_terms({(1, 1): 0.3, (2, 0): 0.2, (0, 1): 0.1j, (0, 0): 0.4, (-1, 2): 0.05})
    degrees = [8, 16, 24, 32, 64]
    counting = CountingNumpy()
    monkeypatch.setattr(distributional, "np", counting)
    vals = distributional_expectations(model, split, degrees, order=3)
    assert counting.calls.count("matmul") == 1 and "einsum" not in counting.calls
    monkeypatch.undo()
    for N, v in zip(degrees, vals):
        assert v == distributional_expectation(model, split, N, order=3)
        terms = distributional_terms(model, split, N, order=3)
        want = split.plus_infinity + model.norm.factor(N, 3) ** 2 * sum(v for _, v in terms)
        assert v == want


def test_expectation_work_is_free_of_the_table_bandwidth(disk_const_model, ellipse_exp_model,
                                                         monkeypatch):
    # one request makes the same numpy calls, returning arrays of the same
    # shapes, on a moment table of bandwidth 0 (disk-const) as on one of
    # bandwidth 34 (ellipse-expre): no array spans the table's modes
    split = split_terms({(1, 1): 0.3, (2, 0): 0.2, (0, 1): 0.1j, (0, 0): 0.4, (-3, 2): 0.05})
    seen = []
    for model in (disk_const_model, ellipse_exp_model):
        distributional_expectation(model, split, 40)   # the table and per-order arrays
        counting = CountingNumpy()
        for module in (distributional, series):
            monkeypatch.setattr(module, "np", counting)
        assert np.isfinite(distributional_expectation(model, split, 40))
        monkeypatch.undo()
        seen.append(((model.moments.shape[-1] - 1) // 2, counting.calls, counting.shapes))
    (small, *work), (large, *other) = seen
    assert (small, large) == (0, 34)
    assert work == other and "matmul" in work[0]


_PRESET_SPLITS = {
    # random terms near the circle, several on one mode
    "random": None,
    # repeated modes: m - n = 1 three times, m - n = 0 twice
    "repeated": {(1, 0): 0.5, (2, 1): -0.25j, (3, 2): 0.125, (1, 1): 0.3, (2, 2): -0.1},
    # a term beyond every preset table's bandwidth beside near ones
    "far": {(1, 1): 0.3, (40, -40): 1e6, (0, 2): 0.2j},
}


@pytest.mark.parametrize("kind", sorted(_PRESET_SPLITS))
def test_contraction_matches_the_dense_jet(all_preset_models, kind):
    # the per-term contraction against the dense jet of g_0 at the table's
    # bandwidth contracted with every mode of the table, within 1e-14 of the
    # sum of the absolute values of their parts, at every order
    rng = np.random.default_rng(43)
    for name, model in all_preset_models.items():
        rows = _PRESET_SPLITS[kind]
        if rows is None:
            rows = {(int(m), int(n)): complex(*rng.standard_normal(2))
                    for m, n in rng.integers(-5, 6, (8, 2))}
        split = split_terms(rows)
        degrees = [8, 40, 1000]
        for order in range(model.order + 1):
            index, got = distributional._boundary_terms(model, split, degrees, order)
            want_index, want, bound = dense_boundary_terms(model, split.terms, degrees, order)
            assert list(index) == want_index
            assert np.all(np.abs(got - want) <= 1e-14 * bound), (name, kind, order)
            for i, N in enumerate(degrees):
                assert distributional_expectation(model, split, N, order) == \
                    split.plus_infinity + model.norm.factor(N, order) ** 2 * sum(got[i].tolist())


def test_exterior_harmonic_terms_give_exactly_the_value_at_infinity(all_preset_models):
    # g_+ (z^m, m <= 0) and g_- (conj(z)^n, n <= -1) only: every jet weight
    # cancels exactly, so the expansion is g_+(inf) at every degree and order
    split = split_terms({(0, 0): 0.7 - 0.1j, (-1, 0): 0.3, (-4, 0): 2j, (0, -1): -0.4,
                         (0, -3): 0.25j, (-2, 0): 1.5})
    for name, model in all_preset_models.items():
        for order in range(model.order + 1):
            for N in (8, 40, 10 ** 4):
                assert distributional_expectation(model, split, N, order) == \
                    split.plus_infinity, (name, order, N)
                assert all(v == 0 for _, v in distributional_terms(model, split, N, order))


def test_overflowing_radial_weight_is_typed(all_preset_models):
    # a term whose (-(m+n)/2)^nu c leaves the float range: the dense jet is
    # not finite there, and the request is refused with the same error
    split = split_terms({(1, 1): 0.3, (2 ** 40, 2 ** 40): 1e300})
    for name, model in all_preset_models.items():
        _, want, _ = dense_boundary_terms(model, split.terms, [16], model.order)
        assert not np.all(np.isfinite(want)), name
        with pytest.raises(po.NonFiniteError,
                           match="^boundary expansion of the test function out of float range "
                                 "at degree 16$"):
            distributional_expectation(model, split, 16)
