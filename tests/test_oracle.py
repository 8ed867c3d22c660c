import math

import numpy as np
import pytest

import planorth as po
from numpy.polynomial.legendre import leggauss

from planorth import oracle
from planorth.errors import DegreeTooHighError, NonStarlikeError, OutOfValidityError
from planorth.oracle import (GRAM_BLOCK, QuadratureRule, berezin_expectation,
                             berezin_expectations, holomorphic_pairing, l2_discrepancies,
                             smoothstep)


def test_disk_mass_and_moment(disk_const_model):
    rule = po.build_quadrature(disk_const_model.map, disk_const_model.weight, degree=24)
    assert abs(rule.mass - 1.0) <= 1e-10
    assert abs(rule.integrate(np.abs(rule.nodes) ** 20).real - 1.0 / 11.0) <= 1e-10
    assert rule.declared_accuracy <= 1e-12
    assert np.all(rule.weights > 0)


def test_ellipse_mass(ellipse_const_model):
    rule = po.build_quadrature(ellipse_const_model.map, ellipse_const_model.weight, degree=24)
    assert abs(rule.mass - 2.0) <= 1e-8


def test_non_starlike_rejected():
    m = po.exterior_map(1.0, [0.0, 0.5, 0.3])
    ws = po.pullback_weight(m, po.constant_weight(), 8, 0.985)
    with pytest.raises(NonStarlikeError):
        po.build_quadrature(m, ws, degree=16)


def test_oracle_monomials_on_disk(disk_const_oracle):
    polys = disk_const_oracle
    # rotation invariance forces P_n = sqrt(n+1) z^n
    assert abs(polys.kappa[10] - math.sqrt(11)) <= 1e-9
    col = polys.coeff_table[:, 7]
    assert abs(col[7] - math.sqrt(8)) < 1e-10
    assert np.max(np.abs(col[:7])) < 1e-10


def test_oracle_gram_residual(disk_alpha_oracle):
    polys = disk_alpha_oracle
    assert polys.gram_residual <= 1e-10


def test_blocked_gram_check_matches_the_full_product(disk_alpha_fan):
    rule, polys = disk_alpha_fan
    assert rule.nodes.size > GRAM_BLOCK and rule.nodes.size % GRAM_BLOCK != 0
    Q = polys.basis
    dev = np.abs(Q.conj().T @ (rule.weights[:, None] * Q) - np.eye(polys.degree + 1))
    want = np.max(np.triu(np.maximum(dev, dev.T)), axis=0)
    assert np.max(np.abs(polys.gram_residuals - want)) <= 1e-15


def test_gram_gate_refuses_an_unresolved_rule():
    # 24 nodes pass the declared-degree gate but span only degrees below 24
    nodes = 0.9 * np.exp(2j * np.pi * np.arange(24) / 24)
    rule = QuadratureRule(nodes, np.full(24, 1.0 / 24), math.inf, {"degree": 200})
    assert po.oracle_onps(rule, 20).gram_residual <= 1e-12
    with pytest.raises(DegreeTooHighError, match=r"Gram residual \d\.\d{3}e[-+]\d\d above"):
        po.oracle_onps(rule, 30)


def test_oracle_kappa_times_prefactor_carleman(ellipse_const_model, ellipse_const_oracle):
    polys = ellipse_const_oracle
    N = 30
    assert abs(polys.kappa[N] * po.monic_prefactor(ellipse_const_model, N)
               / math.sqrt(N + 1) - 1.0) <= 1e-4


def test_rotation_equivariance_of_kappa(disk_alpha_oracle):
    polys = disk_alpha_oracle
    rotated = po.exp_re_linear_weight(0.3 * np.exp(1j * np.pi / 3))
    polys_rot = po.boundary_onps(po.disk_map(), rotated.holo_poly, 20)
    assert np.max(np.abs(polys_rot.kappa[:21] / polys.kappa[:21] - 1.0)) <= 1e-9


def test_kernel_symmetry_and_disk_value(disk_const_oracle, disk_alpha_oracle):
    polys = disk_alpha_oracle
    z, w = 1.3 + 0.2j, 0.8 - 0.5j
    assert po.oracle_kernel(polys, z, w) == pytest.approx(
        np.conj(po.oracle_kernel(polys, w, z)), rel=1e-12)
    pc = disk_const_oracle
    assert po.oracle_kernel(pc, 0.0, 0.0) == pytest.approx(1.0, abs=1e-10)
    diag = po.oracle_kernel(polys, z, z)
    assert abs(diag.imag) <= 1e-12 * diag.real and diag.real > 0


def test_kernel_reproducing_property(disk_alpha_oracle, disk_alpha_fan):
    # the boundary oracle's kernel reproduces under the fan's area rule
    polys = disk_alpha_oracle
    rule, _ = disk_alpha_fan
    w = 0.4 + 0.3j
    vals = polys.evaluate(rule.nodes, upto=10)
    kr = vals @ np.conj(polys.evaluate(np.array([w]), upto=10)[0])
    q = rule.nodes ** 3
    got = rule.integrate(kr * np.conj(q))
    assert abs(got - np.conj(w) ** 3) <= 1e-8


def test_degree_guard():
    model = po.build_model(po.disk_map(), po.constant_weight(), 1, bidegree=8,
                           inner_radius=0.7)
    rule = po.build_quadrature(model.map, model.weight, degree=16)
    with pytest.raises(DegreeTooHighError):
        po.oracle_onps(rule, 30)


def test_smoothstep_profile():
    assert smoothstep(np.array([0.0, 0.5, 1.0]), 0.0, 1.0) == pytest.approx([0.0, 0.5, 1.0])
    x = np.linspace(0, 1, 11)
    s = smoothstep(x, 0.0, 1.0)
    assert np.all(np.diff(s) >= 0)


def test_l2_discrepancy_flat_disk_matches_prediction(disk_const_model, disk_const_oracle):
    # P_N = sqrt(N+1) z^N exactly, so the only sources of discrepancy are the
    # truncated norm factor (relative |sqrt(1+1/N) - D_N| since ||z^N|| =
    # 1/sqrt(N+1)) and the cutoff region; the high-order run isolates the latter
    polys = disk_const_oracle
    N = 20
    cutoff = po.l2_discrepancy(disk_const_model, polys, N, order=4)
    assert cutoff <= 0.02
    d0 = po.l2_discrepancy(disk_const_model, polys, N, order=0)
    norm_err = abs(math.sqrt(N + 1) - math.sqrt(N) * po.norm_factor(disk_const_model, N, 0))
    predicted = math.hypot(norm_err / math.sqrt(N + 1), cutoff)
    assert abs(d0 - predicted) <= 0.1 * predicted


def test_l2_discrepancy_rate(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    d12 = po.l2_discrepancy(disk_alpha_model, polys, 12, order=1)
    d24 = po.l2_discrepancy(disk_alpha_model, polys, 24, order=1)
    assert 0.25 / 1.6 <= d24 / d12 <= 0.25 * 1.6


def test_l2_discrepancy_ellipse_exp_rate(ellipse_exp_model, ellipse_exp_oracle):
    polys = ellipse_exp_oracle
    consts = []
    for N in (16, 32):
        d = po.l2_discrepancy(ellipse_exp_model, polys, N, order=0)
        consts.append(d * N)
    assert 0.4 <= consts[1] / consts[0] <= 2.5


def test_holomorphic_pairing_decays(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    g = po.circle_from_modes({-1: 1.0}, 4, "exterior-vanishing")
    v16 = abs(holomorphic_pairing(disk_alpha_model, polys, g, 16, rho_ring=0.75))
    v32 = abs(holomorphic_pairing(disk_alpha_model, polys, g, 32, rho_ring=0.75))
    assert v16 / max(v32, 1e-300) >= 2 ** 2.5


def test_holomorphic_pairing_constant_value(disk_alpha_model, disk_alpha_oracle):
    # a test function with nonzero value at infinity pairs to 1/(D_N sqrt(N))
    polys = disk_alpha_oracle
    one = po.circle_from_modes({0: 1.0}, 2)
    rels = {}
    for N in (16, 32):
        v = holomorphic_pairing(disk_alpha_model, polys, one, N, rho_ring=0.5)
        pred = 1.0 / (po.norm_factor(disk_alpha_model, N) * math.sqrt(N))
        rels[N] = abs(v / pred - 1.0)
    assert rels[16] <= 1e-5 and rels[32] <= 1e-6
    assert rels[16] / rels[32] >= 2 ** 3.5


def test_berezin_constant_function(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    one = po.annulus_constant(1.0, 8, disk_alpha_model.inner_radius)
    for N in (16, 32):
        v = berezin_expectation(disk_alpha_model, polys, one, N)
        # the taper removes only exponentially little of the unit mass
        assert abs(v - 1.0) <= 5e-4


def _collar_direct(model, polys, N):
    """The collar rule's nodes with ``P_N`` by the recurrence at ``psi(zeta)``,
    the weights and the cutoff: no mode scaling."""
    collar = oracle._collar(model, polys, None, None)
    P = polys.evaluate(model.map.psi(collar.zeta).ravel(), upto=N)[:, N]
    return collar, P.reshape(collar.zeta.shape)


def _l2_per_degree(model, polys, N, order):
    """The per-degree form: the expansion by ``normalized_at`` at this N only."""
    collar, P = _collar_direct(model, polys, N)
    F = po.normalized_at(model, N, collar.zeta, order)
    diff = P - collar.chi[:, None] * F
    return math.sqrt(oracle._inner_part(polys, N, collar.rho1)
                     + np.sum(collar.weights * np.abs(diff) ** 2))


def _berezin_per_degree(model, polys, g, N):
    collar, P = _collar_direct(model, polys, N)
    return np.sum(collar.weights * collar.chi[:, None] * g.evaluate(collar.zeta) * np.abs(P) ** 2)


@pytest.mark.parametrize("fixture", ["disk_alpha", "ellipse_exp"])
def test_batch_forms_match_per_degree_forms(request, fixture):
    model = request.getfixturevalue(f"{fixture}_model")
    polys = request.getfixturevalue(f"{fixture}_oracle")
    pairs = [(N, order) for order in (0, 2, 4) for N in (8, 16, 24, 32)]
    batch = l2_discrepancies(model, polys, pairs)
    for (N, order), got in zip(pairs, batch):
        want = _l2_per_degree(model, polys, N, order)
        # P_N and X_j by mode scaling against the recurrence and Horner's scheme:
        # relative, down to the roundoff of the unit-norm P_N
        assert abs(got - want) <= 1e-13 * want + 1e-14, (N, order)
        assert po.l2_discrepancy(model, polys, N, order=order) == got
    g = po.annulus_from_terms({(0, 0): 0.2, (1, 1): 0.3, (1, 0): 0.1 - 0.2j, (0, 1): 0.1 + 0.2j,
                               (2, -1): 0.05j, (-1, 2): -0.05j}, 8, model.inner_radius)
    degrees = [8, 16, 32]
    batch = berezin_expectations(model, polys, g, degrees)
    for N, got in zip(degrees, batch):
        want = _berezin_per_degree(model, polys, g, N)
        assert abs(got - want) <= 1e-13 * abs(want), N
        assert berezin_expectation(model, polys, g, N) == got


def test_basis_is_the_recurrence_at_the_nodes(disk_alpha_oracle):
    polys = disk_alpha_oracle
    rule = polys.rule
    assert polys.basis.shape == polys.primitive.shape == (rule.L, polys.degree + 1)
    want = polys.evaluate(rule.nodes)
    assert np.max(np.abs(polys.basis - want)) <= 1e-12 * np.max(np.abs(want))


def test_batch_l2_checks_the_degree(disk_alpha_model, disk_alpha_oracle):
    with pytest.raises(OutOfValidityError):
        l2_discrepancies(disk_alpha_model, disk_alpha_oracle, [(8, 1), (3, 1)])


def test_collar_needs_a_boundary_oracle(disk_alpha_model, disk_alpha_fan):
    _, fan = disk_alpha_fan
    with pytest.raises(po.DomainError):
        l2_discrepancies(disk_alpha_model, fan, [(8, 1)])


def _gram_schmidt_reference(rule, N, passes):
    """Arnoldi with a fixed number of classical Gram-Schmidt passes per degree.

    Returns ``(basis, hess, kappa, gram_residual, ratios)``; ``ratios[n-1]`` is
    the weighted norm of the degree-``n`` vector after the first pass over its
    norm before it."""
    z, w = rule.nodes, rule.weights
    Q = np.empty((z.size, N + 1), dtype=complex)
    hess = np.zeros((N + 1, N), dtype=complex)
    kappa = np.empty(N + 1)
    Q[:, 0] = kappa[0] = 1.0 / math.sqrt(np.sum(w))
    ratios = np.empty(N)
    for n in range(1, N + 1):
        v = z * Q[:, n - 1]
        before = math.sqrt(np.sum(w * np.abs(v) ** 2))
        for k in range(passes):
            proj = Q[:, :n].conj().T @ (w * v)
            v = v - Q[:, :n] @ proj
            hess[:n, n - 1] += proj
            if k == 0:
                ratios[n - 1] = math.sqrt(np.sum(w * np.abs(v) ** 2)) / before
        nrm = math.sqrt(np.sum(w * np.abs(v) ** 2))
        Q[:, n] = v / nrm
        hess[n, n - 1] = nrm
        kappa[n] = kappa[n - 1] / nrm
    gram = (w[:, None] * Q).conj().T @ Q
    return Q, hess, kappa, np.max(np.abs(gram - np.eye(N + 1))), ratios


def _assert_matches_reference(polys, reference):
    Q, hess, kappa = reference[:3]
    assert np.max(np.abs(polys.basis - Q)) <= 1e-13 * np.max(np.abs(Q))
    assert np.max(np.abs(polys.hess - hess)) <= 1e-13 * np.max(np.abs(hess))
    assert np.max(np.abs(polys.kappa / kappa - 1.0)) <= 1e-13


@pytest.mark.parametrize("fixture", ["disk_const", "disk_alpha", "ellipse_const", "ellipse_exp"])
def test_one_pass_gram_schmidt_matches_two_passes(request, fixture):
    rule, polys = request.getfixturevalue(f"{fixture}_fan")
    reference = _gram_schmidt_reference(rule, polys.degree, passes=2)
    # the first pass never cancels past 1/sqrt(2) here, so no degree takes a second one
    assert np.min(reference[4]) > 1 / math.sqrt(2)
    _assert_matches_reference(polys, reference)


def test_second_pass_on_near_breakdown():
    # 24 equal-weight roots of unity and 12 nodes of tiny weight inside: z^24 - 1
    # vanishes on the heavy nodes, so the degree-24 vector almost cancels
    K, extra = 24, 12
    nodes = np.concatenate([np.exp(2j * np.pi * np.arange(K) / K),
                            0.5 * np.exp(2j * np.pi * (np.arange(extra) + 0.5) / extra)])
    weights = np.concatenate([np.full(K, 1.0 / K), np.full(extra, 1e-12)])
    rule = po.QuadratureRule(nodes, weights, math.inf, {})
    N = 30
    reference = _gram_schmidt_reference(rule, N, passes=2)
    assert np.min(reference[4]) <= 1 / math.sqrt(2)
    # one pass alone loses orthogonality there; the second pass restores it
    assert _gram_schmidt_reference(rule, N, passes=1)[3] > 1e-12
    polys = po.oracle_onps(rule, N)
    assert polys.gram_residual <= 1e-12
    _assert_matches_reference(polys, reference)


def _ellipse_log_kappa(cap, a1, n):
    """``log kappa_n`` of the constant-weight ellipse ``cap zeta + a1 / zeta``: the
    orthonormal polynomials are ``U_n(z / c)`` over their norms, ``c = 2 sqrt(cap a1)``."""
    c, log_r = 2.0 * math.sqrt(cap * a1), 0.5 * math.log(cap / a1)
    log_sq_norm = (2.0 * math.log(c / 2.0) + (2 * n + 2) * log_r
                   + math.log1p(-math.exp(-(4 * n + 4) * log_r)) - math.log(n + 1))
    return n * math.log(2.0 / c) - 0.5 * log_sq_norm


@pytest.mark.parametrize("preset", ["disk-const", "ellipse-const"])
def test_exact_kappa_at_high_degree(all_preset_models, preset):
    model = all_preset_models[preset]
    rule = po.build_quadrature(model.map, model.weight, degree=168)
    polys = po.oracle_onps(rule, 80)
    n = np.arange(81)
    if preset == "disk-const":
        exact = np.sqrt(n + 1.0)
    else:
        cap, a1 = model.map.cap, model.map.tail[1].real
        exact = np.exp([_ellipse_log_kappa(cap, a1, k) for k in n])
    assert np.max(np.abs(polys.kappa / exact - 1.0)) <= 1e-13


def test_quadrature_node_budget(all_preset_models):
    for name, model in all_preset_models.items():
        for degree, budget in ((88, 15_000), (168, 30_000)):
            rule = po.build_quadrature(model.map, model.weight, degree=degree)
            assert rule.nodes.size <= budget, (name, degree, rule.nodes.size)


def test_evaluate_matches_the_written_out_recurrence(ellipse_exp_oracle):
    polys = ellipse_exp_oracle
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.5, 1.5, 200) + 1j * rng.uniform(-1.0, 1.0, 200)
    want = np.empty((z.size, polys.degree + 1), dtype=complex)
    want[:, 0] = polys.kappa[0]
    for n in range(1, polys.degree + 1):
        acc = z * want[:, n - 1]
        for j in range(n):
            acc = acc - polys.hess[j, n - 1] * want[:, j]
        want[:, n] = acc / polys.hess[n, n - 1]
    got = polys.evaluate(z)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("preset", ["disk-expre03", "ellipse-expre", "perturbed-expre",
                                    "ellipse-const"])
def test_boundary_oracle_matches_the_fan(all_preset_models, preset):
    model = all_preset_models[preset]
    N = 40
    fan = po.oracle_onps(po.build_quadrature(model.map, model.weight, degree=2 * N + 8), N)
    polys = po.boundary_onps(model.map, model.weight.holo_poly, N)
    assert np.max(np.abs(polys.log_kappa - fan.log_kappa)) <= 1e-13
    assert polys.gram_residual <= 1e-14
    health = polys.health
    assert health["kind"] == "boundary" and health["L"] == polys.rule.L == 256
    assert health["residue"] <= 1e-13 and health["doubled_L_change"] <= 1e-13


def _polar_l2(model, polys, N, order, q=24, n_ang=512):
    """``|| P_N - chi0 F_N ||`` on the unit disk by a polar tensor rule with
    breaks at 0, ``rho1``, ``rho2`` and eight halvings toward 1: ``P_N`` by the
    recurrence, the weight by its evaluator, the expansion by ``normalized_at``."""
    rho1, rho2 = model.inner_radius + 0.05, model.inner_radius + 0.15
    breaks = np.concatenate([[0.0, rho1, rho2], 1 - (1 - rho2) * 0.5 ** np.arange(1, 9), [1.0]])
    x, w = leggauss(q)
    r = np.concatenate([(a + b) / 2 + (b - a) / 2 * x for a, b in zip(breaks, breaks[1:])])
    wr = np.concatenate([(b - a) / 2 * w for a, b in zip(breaks, breaks[1:])])
    z = r[:, None] * np.exp(2j * np.pi * np.arange(n_ang) / n_ang)[None, :]
    weights = (wr * r)[:, None] * (2.0 / n_ang) * model.weight.omega(z)
    P = polys.evaluate(z.ravel(), upto=N)[:, N].reshape(z.shape)
    F = np.zeros_like(z)
    F[r > rho1] = po.normalized_at(model, N, z[r > rho1], order)
    chi = smoothstep(r, rho1, rho2)[:, None]
    return math.sqrt(np.sum(weights * np.abs(P - chi * F) ** 2))


def test_collar_l2_matches_a_polar_tensor_rule_on_the_disk(disk_alpha_model, disk_alpha_oracle):
    for N, order in ((16, 2), (24, 1), (32, 0)):
        got = po.l2_discrepancy(disk_alpha_model, disk_alpha_oracle, N, order)
        want = _polar_l2(disk_alpha_model, disk_alpha_oracle, N, order)
        assert abs(got / want - 1.0) <= 1e-10, (N, order, got, want)
    assert po.l2_discrepancy(disk_alpha_model, disk_alpha_oracle, 16, 2) == pytest.approx(
        1.7957109916e-4, rel=1e-10)


@pytest.mark.parametrize("preset", ["disk-expre03", "ellipse-expre", "perturbed-expre"])
def test_collar_stable_under_doubled_samples_and_panel_nodes(all_preset_models, monkeypatch,
                                                             preset):
    model = all_preset_models[preset]
    N = 32
    polys = po.boundary_onps(model.map, model.weight.holo_poly, N)
    doubled = oracle._circle_arnoldi(
        po.boundary_rule(model.map, model.weight.holo_poly, 2 * polys.rule.L), N)
    pairs = [(n, k) for k in (0, 2, 4) for n in (8, 16, 32)]
    g = po.annulus_from_terms({(0, 0): 0.2, (1, 1): 0.3, (1, 0): 0.1 - 0.2j,
                               (0, 1): 0.1 + 0.2j}, 8, model.inner_radius)
    l2 = l2_discrepancies(model, polys, pairs)
    be = berezin_expectations(model, polys, g, [8, 16, 32])
    runs = [(l2_discrepancies(model, doubled, pairs),
             berezin_expectations(model, doubled, g, [8, 16, 32]))]
    monkeypatch.setattr(oracle, "COLLAR_Q", 2 * oracle.COLLAR_Q)
    runs.append((l2_discrepancies(model, polys, pairs),
                 berezin_expectations(model, polys, g, [8, 16, 32])))
    for l2_again, be_again in runs:
        # relative, down to the roundoff of the unit-norm P_N
        assert np.all(np.abs(l2_again - l2) <= 1e-10 * l2 + 1e-15)
        assert np.max(np.abs(be_again / be - 1.0)) <= 1e-14


@pytest.mark.parametrize("preset", ["ellipse-expre", "perturbed-expre"])
def test_log_kappa_rates_at_large_degree(all_preset_models, preset):
    # log kappa_N of the oracle against the model's leading coefficient of each
    # order, far beyond the fan rule's reach: the error falls like N^-(order+1)
    model = all_preset_models[preset]
    Ns = np.array([50, 70, 100, 140, 200])
    polys = po.boundary_onps(model.map, model.weight.holo_poly, int(Ns[-1]))
    for order in range(4):
        errs = [abs(polys.log_kappa[N] - math.log(po.leading_coeff(model, N, order)))
                for N in Ns]
        slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
        assert abs(slope + order + 1) <= 0.1, (order, slope)


def _ellipse_log_kappa_all(model, n):
    return np.array([_ellipse_log_kappa(model.map.cap, model.map.tail[1].real, k) for k in n])


@pytest.mark.parametrize("preset", ["disk-const", "ellipse-const"])
def test_boundary_exact_kappa_at_large_degree(all_preset_models, preset):
    model = all_preset_models[preset]
    polys = po.boundary_onps(model.map, model.weight.holo_poly, 200)
    n = np.arange(201)
    exact = (0.5 * np.log(n + 1.0) if preset == "disk-const"
             else _ellipse_log_kappa_all(model, n))
    assert np.max(np.abs(polys.log_kappa - exact)) <= 1e-12


def test_boundary_oracle_doubles_its_samples_until_settled():
    # omega = exp(80 Re z) on the unit disk: the products of the inner product
    # carry more modes than the default samples resolve
    m, P = po.disk_map(), np.array([0.0, 40.0])
    polys = po.boundary_onps(m, P, 8)
    assert polys.rule.L == 2 * oracle.boundary_samples(m, 8)
    assert polys.health["doubled_L_change"] <= oracle.DOUBLING_TOL
    assert polys.gram_residual <= 1e-10


def test_boundary_oracle_needs_a_polynomial_weight():
    with pytest.raises(po.DomainError):
        po.boundary_onps(po.disk_map(), None, 8)


@pytest.mark.parametrize("rho1, rho2", [(0.5, 0.9), (0.8, 0.8), (1.0, 1.1)])
def test_collar_refuses_a_cutoff_outside_the_collar(ellipse_exp_model, ellipse_exp_oracle,
                                                    rho1, rho2):
    # the ellipse's psi' vanishes at |zeta| = 3^-1/2, inside its margin 0.606
    with pytest.raises(po.DomainError):
        l2_discrepancies(ellipse_exp_model, ellipse_exp_oracle, [(8, 1)], rho1, rho2)
