import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import planorth as po
from planorth import oracle
from planorth.errors import DegreeTooHighError, DomainError, OutOfValidityError
from planorth.expansion import _pointwise
from planorth.oracle import berezin_expectations, l2_discrepancies, smoothstep
from planorth.presets import preset_parts

from conftest import halving_breaks, polar_rule, ring_rule


def fan_rule(model):
    """:func:`conftest.polar_rule` on the model's domain with its weight folded
    in: radial breaks 0, 1 - 2^-k (k = 1..6), 1, 18 nodes per panel, 136 angles."""
    z, w = polar_rule(model.map, halving_breaks(0.0, 7), 18, 136)
    return z, w * model.weight.omega(z)


def test_disk_mass_and_moment(disk_const_model):
    z, w = fan_rule(disk_const_model)
    assert abs(np.sum(w) - 1.0) <= 1e-10
    assert abs(np.sum(w * np.abs(z) ** 20) - 1.0 / 11.0) <= 1e-10
    assert np.all(w > 0)


def test_ellipse_mass(ellipse_const_model):
    assert abs(np.sum(fan_rule(ellipse_const_model)[1]) - 2.0) <= 1e-8


# univalent (margin 0.918) but starlike neither about 0 nor about its centroid
NON_STARLIKE = po.ExteriorMap(1.0, [0.0, -0.458, 0.2178, -0.0427, 0.0854])


def _exact_log_kappa(m, n):
    """``log kappa_0 .. log kappa_n`` for the constant weight from the Cholesky
    factor of the exact moments ``<z^j, z^k> = [psi^j conj(psi)^(k+1) psi' zeta]_0
    / (k+1)``: Laurent polynomials on the circle, multiplied by convolution."""
    cap, tail = complex(m.cap), np.append(np.asarray(m.tail, dtype=complex), 0.0)
    T = tail.size - 1
    # (lowest power of zeta, coefficients in ascending powers)
    psi = (-T, np.append(tail[::-1], cap))
    dz = (-T, np.append(-np.arange(T, 0, -1) * tail[:0:-1], [0.0, cap]))
    conj_psi = (-1, np.append(np.conj(cap), np.conj(tail)))

    def mul(a, b):
        return a[0] + b[0], np.convolve(a[1], b[1])

    gram = np.empty((n + 1, n + 1), dtype=complex)
    pj = (0, np.ones(1, dtype=complex))
    for j in range(n + 1):
        ck = conj_psi
        for k in range(n + 1):
            lo, c = mul(mul(pj, ck), dz)
            gram[j, k] = c[-lo] / (k + 1)
            ck = mul(ck, conj_psi)
        pj = mul(pj, psi)
    return -np.log(np.abs(np.diag(np.linalg.cholesky(gram))))


@pytest.mark.parametrize("m", [NON_STARLIKE, preset_parts("disk-const")[0],
                               preset_parts("ellipse-const")[0],
                               preset_parts("perturbed-expre")[0]],
                         ids=["non-starlike", "disk", "ellipse", "perturbed"])
def test_boundary_oracle_matches_exact_moments(m):
    polys = po.boundary_onps(m, np.zeros(1), 8)
    assert np.max(np.abs(polys.log_kappa - _exact_log_kappa(m, 8))) <= 1e-12


def test_non_starlike_domain_at_large_degree():
    m = NON_STARLIKE
    b = m.psi(np.exp(2j * np.pi * np.arange(1024) / 1024))
    for center in (0.0, np.mean(b)):
        assert np.any(np.diff(np.unwrap(np.angle(b - center))) <= 0)
    polys = po.boundary_onps(m, np.array([0.0, 0.3]), 200)
    health = polys.health
    assert health["tail"] <= 1e-13
    assert polys.gram_residual <= 1e-14


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


def _second_passes(rule, N):
    """The oracle on ``rule`` and its number of second Gram-Schmidt passes, as
    its ``health`` reports it."""
    polys = oracle._circle_arnoldi(rule, N)
    return polys, polys.health["second_passes"]


def test_gram_gate_refuses_an_unresolved_rule():
    # omega = exp(80 Re z) on the unit disk: 256 samples do not resolve degree 40,
    # and on more samples, which do, the Gram gate fails on conditioning
    m, P = po.disk_map(), np.array([0.0, 40.0])
    assert re.fullmatch(r"tail \d\.\de-\d\d above 1e-12 at degree \d+",
                        oracle._circle_arnoldi(po.boundary_rule(m, P, 256), 40))
    for L in (512, 1024):
        with pytest.raises(DegreeTooHighError, match=r"Gram residual \d\.\d{3}e[-+]\d\d above "
                           rf".* at degree 40 on L = {L} resolved circle samples"):
            oracle._circle_arnoldi(po.boundary_rule(m, P, L), 40)


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


def test_kernel_reproducing_property(disk_alpha_model, disk_alpha_oracle):
    # the boundary oracle's kernel reproduces under the polar area rule
    polys = disk_alpha_oracle
    z, wts = fan_rule(disk_alpha_model)
    w = 0.4 + 0.3j
    vals = polys.evaluate(z, upto=10)
    kr = vals @ np.conj(polys.evaluate(np.array([w]), upto=10)[0])
    got = np.sum(wts * kr * np.conj(z ** 3))
    assert abs(got - np.conj(w) ** 3) <= 1e-8


def _counted_runs(monkeypatch):
    """The sample counts of the ``_circle_arnoldi`` runs made from now on."""
    runs = []
    arnoldi = oracle._circle_arnoldi

    def counted(rule, N):
        runs.append(rule.L)
        return arnoldi(rule, N)

    monkeypatch.setattr(oracle, "_circle_arnoldi", counted)
    return runs


def test_max_samples_stops_the_doubling(monkeypatch):
    # omega = exp(80 Re z) at degree 8 needs 512 samples; capped at 128, the
    # oracle gives up and names the tail that tripped
    monkeypatch.setattr(oracle, "MAX_SAMPLES", 128)
    with pytest.raises(DegreeTooHighError, match=r"degree 8 not resolved at 128 circle "
                       r"samples: tail \d\.\de-\d\d above 1e-12 at degree \d"):
        po.boundary_onps(po.disk_map(), np.array([0.0, 40.0]), 8)


@pytest.mark.parametrize("N, L", [(24, 256), (40, 512)])
def test_strong_weight_is_served_once_resolved(monkeypatch, N, L):
    # omega = exp(40 Re z) on the unit disk.  The first samples alias: at N = 24
    # on 128 of them the zeta^-1 residue is 3.9e-15 and the Gram deviation
    # 3.6e-10, yet log kappa is off by 3e-2, which only the tail sees.  On twice
    # the samples log kappa agrees with a run on 2L to its ~1e-10 roundoff
    m, P = po.disk_map(), np.array([0.0, 20.0])
    runs = _counted_runs(monkeypatch)
    polys = po.boundary_onps(m, P, N)
    assert runs == [L // 2, L] and polys.health["L"] == L
    assert polys.health["tail"] <= oracle.TAIL_TOL and polys.gram_residual <= oracle.GRAM_TOL
    twin = oracle._circle_arnoldi(po.boundary_rule(m, P, 2 * L), N)
    assert np.max(np.abs(twin.log_kappa - polys.log_kappa)) <= 1e-9


def test_gram_gate_on_resolved_samples_refuses_at_once(monkeypatch):
    # omega = exp(80 Re z) at degree 40: 512 samples resolve the integrand and
    # the Gram gate fails on conditioning, so doubling the samples cannot help
    # and the first failure on resolved samples raises
    runs = _counted_runs(monkeypatch)
    with pytest.raises(DegreeTooHighError, match=r"Gram residual .* on L = 512 resolved "
                       r"circle samples"):
        po.boundary_onps(po.disk_map(), np.array([0.0, 40.0]), 40)
    assert runs == [256, 512]


@pytest.mark.parametrize("N", [40, 200])
@pytest.mark.parametrize("preset", ["disk-expre03", "ellipse-const", "ellipse-expre",
                                    "perturbed-expre"])
def test_presets_resolve_in_one_run(all_preset_models, monkeypatch, preset, N):
    # the tail passes the first samples, and doubling them moves no log kappa_n
    model = all_preset_models[preset]
    m, P = model.map, model.weight.holo_poly
    runs = _counted_runs(monkeypatch)
    polys = po.boundary_onps(m, P, N)
    assert runs == [oracle.boundary_samples(m, N)]
    twin = oracle._circle_arnoldi(po.boundary_rule(m, P, 2 * polys.rule.L), N)
    assert np.max(np.abs(twin.log_kappa - polys.log_kappa)) <= 1e-13


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
    cutoff, d0 = l2_discrepancies(disk_const_model, polys, [(N, 4), (N, 0)])
    assert cutoff <= 0.02
    norm_err = abs(math.sqrt(N + 1) - math.sqrt(N) * disk_const_model.norm.factor(N, 0))
    predicted = math.hypot(norm_err / math.sqrt(N + 1), cutoff)
    assert abs(d0 - predicted) <= 0.1 * predicted


def test_l2_discrepancy_rate(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    d12, d24 = l2_discrepancies(disk_alpha_model, polys, [(12, 1), (24, 1)])
    assert 0.25 / 1.6 <= d24 / d12 <= 0.25 * 1.6


def test_l2_discrepancy_ellipse_exp_rate(ellipse_exp_model, ellipse_exp_oracle):
    polys = ellipse_exp_oracle
    consts = [d * N for N, d in
              zip((16, 32), l2_discrepancies(ellipse_exp_model, polys, [(16, 0), (32, 0)]))]
    assert 0.4 <= consts[1] / consts[0] <= 2.5


def _ring_pairing(model, polys, g, N, rho_ring):
    """``int_ring g(w) conj(p_N(w)) |w|^{2N} Omega(w) dA(w) / pi`` with
    ``p_N = P_N(psi(w)) psi'(w) w^{-N} e^{-V(psi(w))}`` and ``Omega = |E|^2``:
    an exterior-holomorphic test function against the pulled-back oracle polynomial."""
    w, wts = ring_rule(rho_ring, 768)
    pN = polys.eval_single(model.map.psi(w), N) / _pointwise(model, N, w)[0]
    omega_flat = np.abs(model.szego.E.evaluate(w)) ** 2
    return np.sum(wts * g.evaluate(w) * np.conj(pN) * np.abs(w) ** (2 * N) * omega_flat)


def test_ring_pairing_decays(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    g = po.circle_from_modes({-1: 1.0}, 4)
    v16 = abs(_ring_pairing(disk_alpha_model, polys, g, 16, rho_ring=0.75))
    v32 = abs(_ring_pairing(disk_alpha_model, polys, g, 32, rho_ring=0.75))
    assert v16 / max(v32, 1e-300) >= 2 ** 2.5


def test_ring_pairing_constant_value(disk_alpha_model, disk_alpha_oracle):
    # a test function with nonzero value at infinity pairs to 1/(D_N sqrt(N))
    polys = disk_alpha_oracle
    one = po.circle_from_modes({0: 1.0}, 2)
    rels = {}
    for N in (16, 32):
        v = _ring_pairing(disk_alpha_model, polys, one, N, rho_ring=0.5)
        pred = 1.0 / (disk_alpha_model.norm.factor(N) * math.sqrt(N))
        rels[N] = abs(v / pred - 1.0)
    assert rels[16] <= 1e-5 and rels[32] <= 1e-6
    assert rels[16] / rels[32] >= 2 ** 3.5


def test_berezin_constant_function(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    one = po.annulus_from_terms({(0, 0): 1.0}, 8, disk_alpha_model.inner_radius)
    for v in berezin_expectations(disk_alpha_model, polys, one.terms(), [16, 32]):
        # the taper removes only exponentially little of the unit mass
        assert abs(v - 1.0) <= 5e-4


def _collar_direct(model, polys, N):
    """A radius-by-angle grid over the collar, built here at the oracle's
    angles: ``COLLAR_Q`` Gauss-Legendre nodes on the cutoff's ramp and on each
    of six panels over the flat band, graded toward 1, with no closed form for
    the band; ``P_N`` by the recurrence at ``psi(zeta)``, the weights ``omega dA
    / pi`` from ``psi'`` and the weight's evaluator, and the cutoff; no modes."""
    rho1, rho2 = (model.inner_radius + c for c in oracle.CUTOFF)
    x, w = np.polynomial.legendre.leggauss(oracle.COLLAR_Q)
    breaks = np.append(rho1, halving_breaks(rho2, 6))
    a, b = breaks[:-1, None], breaks[1:, None]
    r, dr = ((a + b) / 2 + (b - a) / 2 * x).ravel(), ((b - a) / 2 * w).ravel()
    zeta = r[:, None] * polys.rule.zeta[None, :]
    z, dpsi = model.map.psi_and_prime(zeta)
    weights = (2 * r * dr)[:, None] / polys.rule.L * np.abs(dpsi) ** 2 * model.weight.omega(z)
    P = polys.evaluate(z.ravel(), upto=N)[:, N].reshape(zeta.shape)
    return smoothstep(r, rho1, rho2)[:, None], zeta, weights, P


def _l2_per_degree(model, polys, N, order):
    """The per-degree form: the expansion by ``normalized_at`` at this N only."""
    chi, zeta, weights, P = _collar_direct(model, polys, N)
    F = po.normalized_at(model, N, zeta, order)
    inner = oracle._on_collar(polys, oracle._collar(model, polys), [N], lambda *_: [])[0][N][2]
    return math.sqrt(inner + np.sum(weights * np.abs(P - chi * F) ** 2))


def _berezin_per_degree(model, polys, g, N):
    chi, zeta, weights, P = _collar_direct(model, polys, N)
    return np.sum(weights * chi * g.evaluate(zeta) * np.abs(P) ** 2)


@pytest.fixture(scope="module")
def ellipse_exp_oracle_400(ellipse_exp_model):
    """A degree-400 oracle on ellipse-expre, past the collar rule's degrees
    (its guard refuses N = 300)."""
    model = ellipse_exp_model
    return po.boundary_onps(model.map, model.weight.holo_poly, 400)


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
        assert l2_discrepancies(model, polys, [(N, order)])[0] == got
    g = po.annulus_from_terms({(0, 0): 0.2, (1, 1): 0.3, (1, 0): 0.1 - 0.2j, (0, 1): 0.1 + 0.2j,
                               (2, -1): 0.05j, (-1, 2): -0.05j}, 8, model.inner_radius)
    degrees = [8, 16, 32]
    batch = berezin_expectations(model, polys, g.terms(), degrees)
    for N, got in zip(degrees, batch):
        want = _berezin_per_degree(model, polys, g, N)
        assert abs(got - want) <= 1e-13 * abs(want), N
        assert berezin_expectations(model, polys, g.terms(), [N])[0] == got
    if fixture == "ellipse_exp":   # degree lists through the collar guard's refusal
        big = request.getfixturevalue("ellipse_exp_oracle_400")
        good = [100, 200, 250]
        l2 = l2_discrepancies(model, big, [(N, 2) for N in good])
        be = berezin_expectations(model, big, g.terms(), good)
        for i, N in enumerate(good):
            assert l2_discrepancies(model, big, [(N, 2)])[0] == l2[i]
            assert berezin_expectations(model, big, g.terms(), [N])[0] == be[i]
        # 300 and 350 are both refused: the message names the first in the list
        for degrees, first in (([100, 300, 250, 350], 300), ([350, 300], 350)):
            msg = rf"at N = {first} \(L = {big.rule.L}\), above 1e-08"
            with pytest.raises(DegreeTooHighError, match=msg):
                l2_discrepancies(model, big, [(N, k) for k in (0, 2) for N in degrees])
            with pytest.raises(DegreeTooHighError, match=msg):
                berezin_expectations(model, big, g.terms(), degrees)


def test_collar_work_does_not_grow_with_the_degrees(disk_alpha_model, disk_alpha_oracle,
                                                   monkeypatch):
    # one forward FFT of every degree's stacked samples and one moment table per
    # call, however many degrees it asks about
    model, polys = disk_alpha_model, disk_alpha_oracle
    g = po.split_terms({(1, 1): 0.3, (2, 0): 0.2, (0, 1): 0.1j, (0, 0): 0.4})
    degrees = [8, 16, 24, 32, 40]
    calls = {"l2": lambda Ns: l2_discrepancies(model, polys, [(N, k) for k in range(5)
                                                              for N in Ns]),
             "berezin": lambda Ns: berezin_expectations(model, polys, g.terms, Ns)}
    for call in calls.values():
        call(degrees)   # the rule's cached frame modes, once per oracle
    counts = {"fft": 0, "moments": 0}
    fft, moments = np.fft.fft, oracle._Collar.moments

    def counted_fft(*args, **kwargs):
        counts["fft"] += 1
        return fft(*args, **kwargs)

    def counted_moments(self, k):
        counts["moments"] += 1
        return moments(self, k)

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(oracle._Collar, "moments", counted_moments)
    for name, call in calls.items():
        work = []
        for Ns in (degrees[:1], degrees):
            counts.update(fft=0, moments=0)
            call(Ns)
            work.append(dict(counts))
        assert work[0] == work[1] and work[0]["moments"] == 1, (name, work)


def test_l2_reads_the_model_products_without_sampling(ellipse_exp_model, ellipse_exp_oracle,
                                                      monkeypatch):
    # the expansion's side is model.products, the products A_j = X_j E:
    # no circle series is evaluated on the oracle's samples
    calls = []
    evaluate = po.CircleSeries.evaluate

    def counted(self, zeta):
        calls.append(np.size(zeta))
        return evaluate(self, zeta)

    monkeypatch.setattr(po.CircleSeries, "evaluate", counted)
    l2_discrepancies(ellipse_exp_model, ellipse_exp_oracle, [(N, 2) for N in (16, 32)])
    assert calls == []


def test_basis_is_the_recurrence_at_the_nodes(disk_alpha_oracle):
    polys = disk_alpha_oracle
    rule = polys.rule
    assert polys.basis.shape == polys.modes.shape == (rule.L, polys.degree + 1)
    want = polys.evaluate(rule.nodes)
    assert np.max(np.abs(polys.basis - want)) <= 1e-12 * np.max(np.abs(want))
    # the kept modes are those of the samples times the Stokes weight
    modes = np.fft.fft(polys.basis * rule.weight[:, None], axis=0)
    assert np.max(np.abs(polys.modes - modes)) <= 1e-14 * np.max(np.abs(modes))


def test_batch_l2_checks_the_degree(disk_alpha_model, disk_alpha_oracle):
    with pytest.raises(OutOfValidityError):
        l2_discrepancies(disk_alpha_model, disk_alpha_oracle, [(8, 1), (3, 1)])


def test_readers_refuse_degrees_outside_the_oracle(disk_alpha_model, disk_alpha_oracle):
    # a negative degree would read a column from the other end; one past the
    # oracle's degree would index past it
    model, polys = disk_alpha_model, disk_alpha_oracle
    top = polys.degree
    g = po.annulus_from_terms({(1, 1): 1.0}, 2, model.inner_radius)
    calls = [lambda n: berezin_expectations(model, polys, g.terms(), [8, n]),
             lambda n: l2_discrepancies(model, polys, [(8, 1), (n, 1)]),
             lambda n: po.oracle_kernel(polys, 1.2, 1.3j, upto=n),
             lambda n: polys.eval_single(1.2, n)]
    for call in calls:
        for n in (-3, -2, top + 1):
            with pytest.raises(DomainError, match=rf"degree {n} outside .* 0\.\.{top}"):
                call(n)
    assert po.oracle_kernel(polys, 1.2, 1.3j, upto=0) == pytest.approx(polys.kappa[0] ** 2)
    assert np.isfinite(po.oracle_kernel(polys, 1.2, 1.3j, upto=top))


def _gram_schmidt_reference(z, w, N):
    """``log kappa_0 .. log kappa_N`` by Arnoldi over the area rule ``(z, w)``,
    two passes of classical Gram-Schmidt at every degree."""
    Q = np.empty((z.size, N + 1), dtype=complex)
    log_kappa = np.empty(N + 1)
    mass = np.sum(w)
    Q[:, 0], log_kappa[0] = 1.0 / math.sqrt(mass), -0.5 * math.log(mass)
    for n in range(1, N + 1):
        v = z * Q[:, n - 1]
        for _ in range(2):
            v = v - Q[:, :n] @ (Q[:, :n].conj().T @ (w * v))
        nrm = math.sqrt(np.sum(w * np.abs(v) ** 2))
        Q[:, n] = v / nrm
        log_kappa[n] = log_kappa[n - 1] - math.log(nrm)
    return log_kappa


@pytest.mark.parametrize("preset", ["disk-const", "disk-expre03", "ellipse-const", "ellipse-expre",
                                    "perturbed-expre"],
                         ids=["disk_const", "disk_alpha", "ellipse_const", "ellipse_exp",
                              "perturbed_exp"])
def test_one_pass_gram_schmidt_matches_two_passes(all_preset_models, preset):
    model = all_preset_models[preset]
    for N in (40, 200):
        rule = po.boundary_rule(model.map, model.weight.holo_poly,
                                oracle.boundary_samples(model.map, N))
        polys, second = _second_passes(rule, N)
        # the first pass never cancels past a factor 1/sqrt(2), so no degree takes
        # a second one; that pass would subtract the Gram matrix's off-diagonal
        # entries, which are roundoff
        assert second == 0, (N, second)
        assert polys.gram_residual <= 1e-14, N


def test_second_pass_on_near_breakdown():
    # omega = exp(40 Re z) on the unit disk: at degrees 1..18 the first pass cancels
    # more than half of z P_{n-1}'s squared norm; one pass alone leaves a Gram
    # deviation of 1.2e-9 to 4.2e-9 at these L, the second brings it below 1e-9
    m, P, N = po.disk_map(), np.array([0.0, 20.0]), 40
    for L in (512, 1024, 2048):
        polys, second = _second_passes(po.boundary_rule(m, P, L), N)
        assert second == 18, (L, second)
        assert polys.gram_residual <= 1e-9, L


def _first_unresolved(rule, N):
    """The first degree ``<= N`` whose tail exceeds ``TAIL_TOL``, or None, by a
    per-degree loop apart from the oracle's: Arnoldi on the samples alone, the
    modes of every vector FFT'd afresh, two classical Gram-Schmidt passes per
    degree, and the tail of degree ``n`` read from the modes of ``z Q_(n-1)``
    before it is orthogonalized."""
    L = rule.L
    k = np.fft.fftfreq(L, 1.0 / L)
    k[0] = np.inf

    def modes(v):
        return np.fft.fft(v * rule.weight)

    def tail(c):
        a = np.abs(c)
        return a[3 * L // 8:L - 3 * L // 8 + 1].max() / a.max()

    def inner(u, v):   # <u, v> by Parseval
        return np.sum(modes(u) * np.conj(modes(v)) / k)

    Q = []
    for n in range(N + 1):
        v = rule.nodes * Q[-1] if Q else np.ones(L, dtype=complex)
        if tail(modes(v)) > oracle.TAIL_TOL:
            return n
        for _ in range(2):
            v = v - sum((inner(v, q) * q for q in Q), 0.0)
        Q.append(v / math.sqrt(inner(v, v).real))
    return None


@pytest.mark.parametrize("m, P, L, N", [(po.disk_map(), [0.0, 40.0], 256, 40),
                                        (po.disk_map(), [0.0, 20.0], 256, 60),
                                        (po.ellipse_map(2, 1), [0.0, 5.0], 128, 80),
                                        (po.disk_map(), [0.0, 3.0], 256, 250)],
                         ids=["exp80-disk", "exp40-disk", "exp10-ellipse", "exp6-disk"])
def test_tails_name_the_first_unresolved_degree(m, P, L, N):
    # each degree's tail is read as its FFT forms it, and the message names the
    # degree the reference loop stops at: 0, 25, 10 and 72 here
    rule = po.boundary_rule(m, np.array(P), L)
    k = _first_unresolved(rule, N)
    assert k is not None
    assert re.fullmatch(rf"tail \d\.\de-\d\d above 1e-12 at degree {k}",
                        oracle._circle_arnoldi(rule, N))


def _degrees_reached(monkeypatch):
    """The degree of every Gram-Schmidt pass made from now on, read off the
    width of the modes :meth:`BoundaryRule.pairings` takes (``n + 1`` at
    degree ``n``)."""
    degrees = []
    pairings = oracle.BoundaryRule.pairings

    def counted(self, c, modes):
        degrees.append(modes.shape[1] - 1)
        return pairings(self, c, modes)

    monkeypatch.setattr(oracle.BoundaryRule, "pairings", counted)
    return degrees


@pytest.mark.parametrize("m, P, L, N, k", [(po.disk_map(), [0.0, 20.0], 256, 60, 25),
                                           (po.ellipse_map(2, 1), [0.0, 5.0], 128, 80, 10),
                                           (po.disk_map(), [0.0, 3.0], 256, 250, 72)])
def test_unresolved_run_stops_by_twice_its_degree(monkeypatch, m, P, L, N, k):
    # degree k's tail is read before its first Gram-Schmidt pass, so the run
    # stops at k itself: the last pass is at degree k - 1
    degrees = _degrees_reached(monkeypatch)
    assert oracle._circle_arnoldi(po.boundary_rule(m, np.array(P), L), N).endswith(
        f"at degree {k}")
    assert max(degrees) == k - 1


def test_breakdown_after_an_unresolved_degree_doubles_the_samples(monkeypatch):
    # omega = exp(40 Re z): on 256 samples degree 25 is unresolved and stops the
    # run, so a breakdown forced at degree 28 is never reached and the samples
    # are doubled; on 512 samples, which resolve degree 25, the same breakdown
    # raises at once
    m, P, N = po.disk_map(), np.array([0.0, 20.0]), 60
    degrees = _degrees_reached(monkeypatch)
    sq_norm = oracle.BoundaryRule.sq_norm

    def breaking(self, c):
        return 0.0 if degrees and degrees[-1] == 28 else sq_norm(self, c)

    monkeypatch.setattr(oracle.BoundaryRule, "sq_norm", breaking)
    assert re.fullmatch(r"tail \d\.\de-\d\d above 1e-12 at degree 25",
                        oracle._circle_arnoldi(po.boundary_rule(m, P, 256), N))
    assert max(degrees) == 24
    monkeypatch.setattr(oracle, "boundary_samples", lambda m, N: 256)
    runs = _counted_runs(monkeypatch)
    with pytest.raises(DegreeTooHighError, match="breakdown at degree 28"):
        po.boundary_onps(m, P, N)
    assert runs == [256, 512]


@pytest.mark.parametrize("preset", ["disk-const", "disk-expre03", "ellipse-const",
                                    "ellipse-expre", "perturbed-expre"])
def test_arnoldi_work_per_degree(monkeypatch, preset):
    # one projection product per Gram-Schmidt pass, one re-norm per degree (and
    # one for the mass), and one tail read per degree, 0 .. N
    m, wd, _, _ = preset_parts(preset)
    N = 40
    rule = po.boundary_rule(m, wd.holo_poly, oracle.boundary_samples(m, N))
    counts = {"pairings": 0, "sq_norm": 0, "_tail": 0}

    def counting(owner, name):
        f = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return f(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(oracle.BoundaryRule, "pairings")
    counting(oracle.BoundaryRule, "sq_norm")
    counting(oracle, "_tail")
    polys = oracle._circle_arnoldi(rule, N)
    assert polys.health["second_passes"] == 0
    assert counts == {"pairings": N, "sq_norm": N + 1, "_tail": N + 1}


def _ellipse_log_kappa(cap, a1, n):
    """``log kappa_n`` of the constant-weight ellipse ``cap zeta + a1 / zeta``: the
    orthonormal polynomials are ``U_n(z / c)`` over their norms, ``c = 2 sqrt(cap a1)``."""
    c, log_r = 2.0 * math.sqrt(cap * a1), 0.5 * math.log(cap / a1)
    log_sq_norm = (2.0 * math.log(c / 2.0) + (2 * n + 2) * log_r
                   + math.log1p(-math.exp(-(4 * n + 4) * log_r)) - math.log(n + 1))
    return n * math.log(2.0 / c) - 0.5 * log_sq_norm


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
    # the reference: two-pass Arnoldi over the polar rule's 17,136 nodes
    model = all_preset_models[preset]
    N = 40
    fan = _gram_schmidt_reference(*fan_rule(model), N)
    polys = po.boundary_onps(model.map, model.weight.holo_poly, N)
    assert np.max(np.abs(polys.log_kappa - fan)) <= 1e-13
    assert polys.gram_residual <= 1e-14
    health = polys.health
    assert health["kind"] == "boundary" and health["L"] == polys.rule.L == 256
    assert health["tail"] <= 1e-13


def _polar_l2(model, polys, N, order, q=24, n_ang=512):
    """``|| P_N - chi0 F_N ||`` on the unit disk by a polar tensor rule with
    breaks at 0, ``rho1``, ``rho2`` and eight halvings toward 1: ``P_N`` by the
    recurrence, the weight by its evaluator, the expansion by ``normalized_at``."""
    rho1, rho2 = model.inner_radius + 0.05, model.inner_radius + 0.15
    breaks = np.concatenate([[0.0, rho1, rho2], 1 - (1 - rho2) * 0.5 ** np.arange(1, 9), [1.0]])
    z, weights = polar_rule(model.map, breaks, q, n_ang)
    weights = weights * model.weight.omega(z)
    r = np.abs(z)
    P = polys.evaluate(z, upto=N)[:, N]
    F = np.zeros_like(z)
    F[r > rho1] = po.normalized_at(model, N, z[r > rho1], order)
    return math.sqrt(np.sum(weights * np.abs(P - smoothstep(r, rho1, rho2) * F) ** 2))


def test_collar_l2_matches_a_polar_tensor_rule_on_the_disk(disk_alpha_model, disk_alpha_oracle):
    for N, order in ((16, 2), (24, 1), (32, 0)):
        got = l2_discrepancies(disk_alpha_model, disk_alpha_oracle, [(N, order)])[0]
        want = _polar_l2(disk_alpha_model, disk_alpha_oracle, N, order)
        assert abs(got / want - 1.0) <= 1e-10, (N, order, got, want)
    assert l2_discrepancies(disk_alpha_model, disk_alpha_oracle, [(16, 2)])[0] == pytest.approx(
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
    be = berezin_expectations(model, polys, g.terms(), [8, 16, 32])
    runs = [(l2_discrepancies(model, doubled, pairs),
             berezin_expectations(model, doubled, g.terms(), [8, 16, 32]))]
    monkeypatch.setattr(oracle, "COLLAR_Q", 2 * oracle.COLLAR_Q)
    runs.append((l2_discrepancies(model, polys, pairs),
                 berezin_expectations(model, polys, g.terms(), [8, 16, 32])))
    for l2_again, be_again in runs:
        # relative, down to the roundoff of the unit-norm P_N
        assert np.all(np.abs(l2_again - l2) <= 1e-10 * l2 + 1e-15)
        assert np.max(np.abs(be_again / be - 1.0)) <= 1e-14


@pytest.mark.parametrize("preset", ["ellipse-expre", "perturbed-expre"])
def test_log_kappa_rates_at_large_degree(all_preset_models, preset):
    # log kappa_N of the oracle against the model's leading coefficient of each
    # order, at degrees no area rule in the tests reaches: the error falls like N^-(order+1)
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


@pytest.mark.parametrize("cap, tail", [(1.0, []), (1.5, [0.5]), (1.0, [0.0, 0.1])],
                         ids=["disk", "ellipse", "perturbed"])
def test_far_centred_domains_reach_degree_256(cap, tail):
    # the Arnoldi step multiplies by z - a_0, so moving the domain to a_0 adds
    # no rounding (multiplying by z, eight of these nine broke down by degree
    # 54).  As |e^(alpha z)|^2 = |e^(alpha a_0)|^2 |e^(alpha (z - a_0))|^2, the
    # moved P_n(a_0 + w) is the centred P_n(w) over e^(Re(alpha a_0)), which also
    # checks the a_0 restored to the diagonal of hess
    alpha, N, w = 0.3, 256, 2.5 * np.exp(2j * np.pi * np.arange(7) / 7)
    centred = po.boundary_onps(po.ExteriorMap(cap, [0.0, *tail]), np.array([0.0, alpha]), N)
    for a0 in (2.0, 4j, 3 + 3j):
        polys = po.boundary_onps(po.ExteriorMap(cap, [a0, *tail]), np.array([0.0, alpha]), N)
        shift = (alpha * a0).real
        assert polys.gram_residual <= oracle.GRAM_TOL
        assert np.max(np.abs(polys.log_kappa + shift - centred.log_kappa)) <= 1e-13
        want = centred.evaluate(w) * math.exp(-shift)
        assert np.max(np.abs(polys.evaluate(a0 + w) - want) / np.abs(want)) <= 1e-12


def test_boundary_oracle_doubles_its_samples_until_settled():
    # omega = exp(80 Re z) on the unit disk: the products of the inner product
    # carry more modes than the default samples resolve
    m, P = po.disk_map(), np.array([0.0, 40.0])
    polys = po.boundary_onps(m, P, 8)
    assert polys.rule.L == 4 * oracle.boundary_samples(m, 8)
    assert polys.health["tail"] <= oracle.TAIL_TOL
    assert polys.gram_residual <= 1e-10


def test_boundary_oracle_needs_a_polynomial_weight():
    with pytest.raises(po.DomainError):
        po.boundary_onps(po.disk_map(), None, 8)


@pytest.mark.parametrize("inner_radius", [0.95, 0.97, 0.99])
def test_collar_refuses_a_cutoff_outside_the_collar(inner_radius):
    # the cutoff rises from rho1 = inner_radius + 0.05 >= 1, outside the domain
    model = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.3), 1,
                           inner_radius=inner_radius)
    polys = po.boundary_onps(model.map, model.weight.holo_poly, 8)
    g = po.annulus_from_terms({(1, 1): 1.0}, 1, model.inner_radius)
    with pytest.raises(po.DomainError, match="rho1"):
        l2_discrepancies(model, polys, [(8, 1)])
    with pytest.raises(po.DomainError, match="rho1"):
        berezin_expectations(model, polys, g.terms(), [8])


@pytest.mark.parametrize("preset", ["disk-expre03", "ellipse-expre", "perturbed-expre"])
def test_collar_radial_sums_are_exact_at_every_mode(all_preset_models, preset):
    # the columns of a moment row sum to int_rho1^1 2 r^(2k + 1) dr: one panel
    # on the cutoff's ramp and the flat band in closed form, where six panels
    # graded toward 1 were off by 1e-9 at k = 1000 and 2e-5 at 2000 on disk-expre03
    model = all_preset_models[preset]
    collar = oracle._collar(model, po.boundary_onps(model.map, model.weight.holo_poly, 8))
    k = np.array([0, 12, 50, 300, 1000, 2000, 5000, 10_000])
    rows = collar.moments(k)
    assert rows.shape == (k.size, oracle.COLLAR_Q + 1)
    exact = -np.expm1((2 * k + 2) * math.log(collar.rho1)) / (k + 1)
    assert np.max(np.abs(rows.sum(axis=1) / exact - 1.0)) <= 1e-14


def _radial_integral(a, k):
    """``int_a^1 2 r^(2k + 1) dr`` for each ``k``, written out."""
    return np.array([-2 * math.log(a) if j == -1 else (1 - a ** (2 * j + 2)) / (j + 1) for j in k])


@pytest.mark.parametrize("inner_radius", [0.5, 0.9])
def test_collar_flat_band_at_k_minus_one_and_past_the_rim(inner_radius):
    # the band's column at k = -1 is its limit, -2 log rho2; with rho2 = 1.05
    # past the rim the ramp ends at 1 and the band's column is 0
    model = po.build_model(po.disk_map(), po.exp_re_linear_weight(0.3), 1,
                           inner_radius=inner_radius)
    collar = oracle._collar(model, po.boundary_onps(model.map, model.weight.holo_poly, 8))
    k = [-3, -2, -1, 0, 1, 4]
    rows = collar.moments(np.array(k))
    band = _radial_integral(min(inner_radius + oracle.CUTOFF[1], 1.0), k)
    assert rows[:, -1] == pytest.approx(band, rel=1e-14, abs=0.0)
    assert (collar.chi[-1], collar.rest[-1]) == (1.0, 0.0)
    assert rows.sum(axis=1) == pytest.approx(_radial_integral(collar.rho1, k), rel=1e-14)


def test_collar_guard_refuses_degrees_it_cannot_hold(ellipse_exp_model, ellipse_exp_oracle_400):
    # degree-400 oracle on ellipse-expre: ||P_N||^2 = inner + sum_k M_k |alpha_k|^2
    # is 1 to roundoff through N = 250 and far off at N = 300, where the r^k
    # scaling of the sample modes has lost P_N
    model, polys = ellipse_exp_model, ellipse_exp_oracle_400
    collar = oracle._collar(model, polys)
    degrees = oracle._on_collar(polys, collar, [100, 200, 250], lambda *_: [])[0]
    for N in (100, 200, 250):
        k0, alpha, inner = degrees[N]
        rows = collar.moments(np.arange(k0, k0 + alpha.size))
        norm = inner + np.sum(np.sum(rows, axis=1) * np.abs(alpha) ** 2)
        assert abs(norm - 1.0) <= 1e-12, N
    good = [100, 200, 250]
    assert np.all(np.isfinite(l2_discrepancies(model, polys, [(N, 2) for N in good])))
    g = po.annulus_from_terms({(1, 1): 1.0}, 1, model.inner_radius)
    assert np.all(np.isfinite(berezin_expectations(model, polys, g.terms(), good)))
    msg = rf"N = 300 \(L = {polys.rule.L}\), above 1e-08"
    with pytest.raises(DegreeTooHighError, match=msg):
        l2_discrepancies(model, polys, [(N, 2) for N in good + [300]])
    with pytest.raises(DegreeTooHighError, match=msg):
        berezin_expectations(model, polys, g.terms(), good + [300])


def test_boundary_oracle_refuses_samples_above_the_cap_before_running(monkeypatch):
    # degree 60 on the disk takes L = 512 samples: above a cap of 128 the
    # oracle refuses at once instead of running Arnoldi on them
    monkeypatch.setattr(oracle, "MAX_SAMPLES", 128)
    with pytest.raises(DegreeTooHighError, match="degree 60 needs L = 512 circle samples, "
                                                 "above the cap of 128"):
        po.boundary_onps(po.disk_map(), [0.0], 60)


def test_oracle_evaluation_beyond_the_float_range_is_typed(disk_alpha_oracle):
    polys = disk_alpha_oracle
    with pytest.raises(po.NonFiniteError, match=r"degree \d+ out of float range "
                                                r"\(\|z\| up to 1e\+200\)"):
        polys.evaluate(np.array([2.0, 1e200]))
    assert np.all(np.isfinite(polys.evaluate(np.array([2.0, 3.0j]))))


def test_berezin_test_function_beyond_the_float_range_is_typed(disk_alpha_model,
                                                               disk_alpha_oracle):
    # |zeta|^-2400 overflows on the inner collar radii (rho1 = 0.55); zeta^-1200
    # pairs modes 1200 apart, beyond the span of G P_N, so its value is exactly 0
    model, polys = disk_alpha_model, disk_alpha_oracle
    far = berezin_expectations(model, polys, po.split_terms({(-1200, 0): 1.0}).terms, [8, 16])
    assert np.all(far == 0.0)
    g = po.split_terms({(-1200, -1200): 1.0})
    with pytest.raises(po.NonFiniteError, match="test function out of float range"):
        berezin_expectations(model, polys, g.terms, [8, 16])


@pytest.mark.parametrize("preset, degrees", [("ellipse-expre", [100, 200]),
                                             ("perturbed-expre", [100, 200, 250])])
def test_collar_at_large_degree_is_stable_under_doubled_samples(all_preset_models, preset,
                                                                degrees):
    # kappa = 4 at the large degrees the mode-space collar reaches: a degree-
    # max(degrees) oracle against one on twice its samples (on ellipse-expre,
    # N = 250 at L = 4096 is refused by the collar guard, so it stays out)
    model = all_preset_models[preset]
    m, P = model.map, model.weight.holo_poly
    polys = po.boundary_onps(m, P, degrees[-1])
    twin = oracle._circle_arnoldi(po.boundary_rule(m, P, 2 * polys.rule.L), degrees[-1])
    pairs = [(N, k) for k in range(5) for N in degrees]
    l2, l2_twin = (l2_discrepancies(model, p, pairs) for p in (polys, twin))
    assert np.all(np.abs(l2_twin - l2) <= 1e-10 * l2 + 1e-15)
    terms = po.split_terms({(0, 0): 0.2, (1, 1): 0.3, (1, 0): 0.1 - 0.2j,
                            (0, 1): 0.1 + 0.2j}).terms
    be, be_twin = (berezin_expectations(model, p, terms, degrees) for p in (polys, twin))
    assert np.max(np.abs(be_twin / be - 1.0)) <= 1e-13


def test_collar_builds_no_radius_by_angle_grid(ellipse_exp_model):
    # a degree-250 oracle holds L = 2048 samples: a grid over the 84 radii of
    # _collar_direct's graded rule would take 2.75 MB per complex array, and
    # the mode-space collar, 12 radii and the flat band in closed form, peaks
    # near 0.5 MB
    model = ellipse_exp_model
    polys = po.boundary_onps(model.map, model.weight.holo_poly, 250)
    pairs = [(N, k) for k in range(5) for N in (100, 200)]
    tracemalloc.start()
    try:
        l2_discrepancies(model, polys, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak


def test_arnoldi_refuses_a_clockwise_rule():
    # the circle run clockwise flips the orientation of the Stokes integral,
    # so the mass <1, 1> comes out negative
    rule = po.boundary_rule(po.disk_map(), np.array([0.0]), 128)
    clockwise = dataclasses.replace(rule, zeta=rule.zeta.conj(), nodes=rule.nodes.conj(),
                                    weight=rule.weight.conj())
    with pytest.raises(DegreeTooHighError, match="boundary mass .* is not positive"):
        oracle._circle_arnoldi(clockwise, 4)


def test_arnoldi_refuses_a_rule_with_constant_nodes():
    # z P_0 is a multiple of P_0 when every node is the same point
    rule = po.boundary_rule(po.disk_map(), np.array([0.0]), 128)
    flat = dataclasses.replace(rule, nodes=np.ones(rule.L, dtype=np.complex128))
    with pytest.raises(DegreeTooHighError, match="breakdown at degree 1"):
        oracle._circle_arnoldi(flat, 4)
