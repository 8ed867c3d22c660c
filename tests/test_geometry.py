import numpy as np
import pytest

import planorth as po
from planorth.errors import ConfigError, ConsistencyError, ConvergenceError, PositivityError
from planorth.geometry import (FIT_TOL, NEWTON_MAXITER, NEWTON_TOL, ExteriorMap, WeightDef,
                               _map_forward, _newton_seed, map_forward_many, phi_prime)
from planorth.presets import PRESETS, preset_parts

from conftest import conjugate_on_circle, halving_breaks, polar_rule, random_circle, szego_of


def test_map_forward_identity():
    m = po.disk_map()
    assert po.map_forward(m, 2.0) == pytest.approx(2.0)


def test_map_forward_ellipse_roundtrip():
    m = po.ellipse_map(2, 1)
    z = m.psi(1.3)
    assert abs(po.map_forward(m, z) - 1.3) < 1e-12


def test_map_forward_defining_equation_residual():
    m = po.ellipse_map(2, 1)
    zeta = po.map_forward(m, 3.0)
    assert abs(1.5 * zeta + 0.5 / zeta - 3.0) <= 1e-12


def test_map_forward_rings_roundtrip():
    m = po.ellipse_map(2, 1)
    for r in (1.0, 1.1, 1.3):
        zeta = r * np.exp(2j * np.pi * np.arange(16) / 16)
        back = po.map_forward(m, m.psi(zeta))
        assert np.max(np.abs(back - zeta)) <= 1e-12 * r


def test_map_forward_rejects_deep_interior():
    m = po.ellipse_map(2, 1)
    with pytest.raises(ConvergenceError):
        po.map_forward(m, 0.0)


def _power_sums(m, zeta):
    """``psi`` and ``psi'`` as written in the map's definition, one power per
    tail term, with the sum of the terms' moduli as the roundoff scale."""
    val, der = m.cap * zeta, np.full_like(zeta, m.cap)
    scale, dscale = m.cap * np.abs(zeta), np.full(zeta.shape, m.cap)
    for j, aj in enumerate(m.tail):
        val = val + aj * zeta ** (-j)
        scale = scale + abs(aj) * np.abs(zeta) ** (-j)
        der = der - j * aj * zeta ** (-j - 1)
        dscale = dscale + j * abs(aj) * np.abs(zeta) ** (-j - 1)
    return val, der, scale, dscale


def test_horner_maps_match_power_sums():
    maps = {name: preset_parts(name)[0] for name in PRESETS}
    maps["six-term tail"] = ExteriorMap(1.2, [0.05, 0.0, 0.08j, 0.0, 0.0, 0.01 - 0.02j])
    for name, m in maps.items():
        radii = np.linspace(m.univalence_margin + 0.05, 2.0, 9)
        zeta = (radii[:, None] * np.exp(2j * np.pi * (np.arange(37) + 0.3) / 37)).ravel()
        val, der, scale, dscale = _power_sums(m, zeta)
        assert np.max(np.abs(m.psi(zeta) - val) / scale) <= 1e-14, name
        assert np.max(np.abs(m.psi_prime(zeta) - der) / dscale) <= 1e-14, name
        pair = m.psi_and_prime(zeta)
        assert np.array_equal(pair[0], m.psi(zeta)) and np.array_equal(pair[1], m.psi_prime(zeta))


def _full_batch_newton(m, zs):
    """Newton inversion that steps every point until all have converged:
    the reference for ``map_forward_many``, which freezes converged points."""
    zeta = _newton_seed(m, zs)
    scale = np.maximum(1.0, np.abs(zs))
    ok = np.ones(zs.shape, dtype=bool)
    for _ in range(NEWTON_MAXITER):
        r = m.psi(zeta) - zs
        if np.all(np.abs(r) <= NEWTON_TOL * scale):
            break
        dp = m.psi_prime(zeta)
        bad = np.abs(dp) < 1e-14
        step = r / np.where(bad, 1.0, dp)
        cap_len = 0.5 * np.maximum(1.0, np.abs(zeta))
        slen = np.maximum(np.abs(step), 1e-300)
        zeta = zeta - np.where(slen > cap_len, step * cap_len / slen, step)
        ok &= ~bad
    ok &= np.abs(m.psi(zeta) - zs) <= 1e-10 * scale
    ok &= np.abs(zeta) > m.univalence_margin
    return zeta, ok


def _counting_map(monkeypatch):
    """Record the number of points of every ``psi_and_prime`` call."""
    sizes = []
    original = ExteriorMap.psi_and_prime

    def counted(self, zeta):
        sizes.append(np.size(zeta))
        return original(self, zeta)

    monkeypatch.setattr(ExteriorMap, "psi_and_prime", counted)
    return sizes


@pytest.mark.parametrize("preset", ["disk-expre03", "ellipse-expre", "perturbed-expre"])
def test_map_forward_many_matches_full_batch_newton(all_preset_models, monkeypatch, preset):
    model = all_preset_models[preset]
    m = model.map
    sizes = _counting_map(monkeypatch)
    # 14,040 area-rule nodes: the deep-interior ones never converge
    nodes = polar_rule(m, halving_breaks(0.0, 6), 18, 130)[0]
    batches = [nodes]
    # 256 points at |phi| = 1 + t log N / N converge together
    N = 1000
    rng = np.random.default_rng(11)
    for _ in range(3):
        t = rng.uniform(0.0, 6.0, 256)
        batches.append(m.psi((1.0 + t * np.log(N) / N) * np.exp(2j * np.pi * rng.random(256))))
    for i, zs in enumerate(batches):
        sizes.clear()
        zeta, ok = map_forward_many(m, zs)
        want, want_ok = _full_batch_newton(m, zs)
        assert np.array_equal(ok, want_ok), (preset, i)
        assert np.max(np.abs(zeta - want) / np.abs(want)) <= 1e-12, (preset, i)
        # every step of the first run maps the whole batch; a second run, on a
        # tail past 1/zeta only, maps the failed points seeded on the circle
        whole = sizes.count(zs.size)
        assert sizes[:whole] == [zs.size] * whole, (preset, i)
        assert len(set(sizes[whole:])) <= (len(m.tail) > 2), (preset, i)
        assert i == 0 or ok.all()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_map_forward_many_safeguards_beside_nonfinite_points(all_preset_models, monkeypatch,
                                                             preset):
    # the step cap and the |psi'| < 1e-14 guard run only when some point trips
    # them; non-finite points in the same batch must not hide those points
    m = all_preset_models[preset].map
    a0 = m.tail[0] if len(m.tail) else 0.0
    # both lie below the margin, where the Joukowski root is, so both are
    # seeded on the unit circle
    capped, flat = a0 + 0.01, a0 + 0.01j
    seeds = _newton_seed(m, np.array([capped, flat]))
    assert np.array_equal(seeds, np.exp(1j * np.angle(np.array([capped, flat]) - a0)))
    flat_seed = seeds[1]
    original = ExteriorMap._evaluate
    flattened = []

    def evaluate(self, zeta, value, prime):
        val, der = original(self, zeta, value, prime)
        hit = np.asarray(zeta) == flat_seed
        if prime and np.any(hit):
            flattened.append(int(np.count_nonzero(hit)))
            der = np.where(hit, 0.0, der)
        return val, der

    monkeypatch.setattr(ExteriorMap, "_evaluate", evaluate)
    seed = seeds[0]
    first_step = abs((m.psi(seed) - capped) / m.psi_prime(seed))
    assert first_step > 0.5 * max(1.0, abs(seed))
    rng = np.random.default_rng(5)
    near = m.psi((1.0 + 0.05 * rng.random(6)) * np.exp(2j * np.pi * rng.random(6)))
    nonfinite = [np.nan, np.inf, complex(np.nan, 1.0), complex(-np.inf, 2.0)]
    zs = np.concatenate([nonfinite, [capped, flat], near])
    zeta, ok = map_forward_many(m, zs)
    assert flattened and flattened[0] == 1
    # the non-finite points drop out before Newton, with no warning
    k = len(nonfinite)
    assert not ok[:k].any() and np.isnan(zeta[:k]).all()
    want, want_ok = _full_batch_newton(m, zs[k:])
    assert np.array_equal(ok[k:], want_ok)
    assert not ok[k + 1] and ok[-near.size:].all()
    assert np.isfinite(want).all()
    assert np.max(np.abs(zeta[k:] - want) / np.abs(want)) <= 1e-12
    _assert_hands_on_its_last_test(m, zs)


def test_map_forward_many_nonfinite_and_empty_input():
    for m in (po.disk_map(), po.ellipse_map(2, 1), preset_parts("perturbed-expre")[0]):
        bad = np.array([np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, np.nan)])
        zs = np.concatenate([bad, [3.0 + 0.5j]])
        zeta, ok = map_forward_many(m, zs)
        assert ok.tolist() == [False] * bad.size + [True]
        assert abs(m.psi(zeta[-1]) - zs[-1]) <= 1e-12
        zeta, ok = map_forward_many(m, np.zeros(0, dtype=np.complex128))
        assert zeta.shape == ok.shape == (0,)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_map_forward_many_lets_no_warning_out(all_preset_models, preset):
    # the centre z = a_0, tiny z - a_0 (a Joukowski root of 0, one that is not
    # finite, or one so small that psi overflows there), non-finite points in
    # a finite batch and points deep inside, seeded on the circle: each batch
    # maps to ok or not ok, with no RuntimeWarning (which pytest makes an error)
    m = all_preset_models[preset].map
    a0 = m.tail[0] if len(m.tail) else 0.0
    deep = a0 + np.array([0.01, 0.02j, -0.01 + 0.01j])
    assert np.allclose(np.abs(_newton_seed(m, deep)), 1.0)
    batches = [[a0], [a0 + 1e-300j], [a0 + 1e-160], [a0 + 1e-8],
               [2.0, np.nan, 3j, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf), 2.5 + 1j],
               deep]
    for zs in batches:
        zs = np.asarray(zs, dtype=np.complex128)
        zeta, ok = map_forward_many(m, zs)
        assert ok.dtype == bool and ok.shape == zeta.shape == zs.shape
        finite = np.isfinite(zs)
        assert not ok[~finite].any() and np.isnan(zeta[~finite]).all()
        assert (np.abs(zeta[ok]) > m.univalence_margin).all()
        assert (np.abs(m.psi(zeta[ok]) - zs[ok]) <= 1e-10 * np.maximum(1.0, np.abs(zs[ok]))).all()
    assert ok.tolist() == [False] * 3   # deep points have no root above the margin


def test_second_preimage_below_the_margin_is_run_again(monkeypatch):
    # from the unit-circle seed, Newton takes psi(0.7043 - 0.1564j) to a second
    # preimage, 0.0452 + 0.5691j, below the margin 0.6967; its Joukowski root
    # lies just below the margin too (|.| = 0.687), and from there Newton
    # returns the point itself.  Only the failed point is run again
    m = ExteriorMap(1.0, [0.0, 0.0272 + 0.3837j, 0.0260 + 0.0405j, 0.0064])
    zeta0 = 0.7043 - 0.1564j
    zs = m.psi(np.array([zeta0, 1.3 + 0.2j]))
    first, first_ok = _full_batch_newton(m, zs)   # one run from the seeds
    assert first_ok.tolist() == [False, True] and abs(first[0] - (0.0452 + 0.5691j)) <= 1e-4
    sizes = _counting_map(monkeypatch)
    zeta, ok = map_forward_many(m, zs)
    assert ok.all() and np.max(np.abs(zeta - [zeta0, 1.3 + 0.2j])) <= 1e-13
    whole = sizes.count(2)
    assert sizes[:whole] == [2] * whole and set(sizes[whole:]) == {1}
    _assert_hands_on_its_last_test(m, zs)


def _assert_hands_on_its_last_test(m, zs):
    """``_map_forward`` hands on ``|zeta|`` and ``psi'(zeta)`` at every root,
    bit for bit those formed from ``zeta`` (a retried point's from the retry),
    and NaN at a non-finite point."""
    zeta, ok, modulus, prime = _map_forward(m, zs)
    assert np.array_equal(zeta, map_forward_many(m, zs)[0], equal_nan=True)
    finite = np.isfinite(zs)
    assert np.isnan(modulus[~finite]).all() and np.isnan(prime[~finite]).all()
    assert np.array_equal(modulus[finite], np.abs(zeta[finite]))
    assert np.array_equal(prime[finite], m.psi_prime(zeta[finite]))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_newton_work_budget(all_preset_models, monkeypatch, preset):
    # the batches the evaluators map (points at |phi| = 1 + t log N / N, and
    # config points) converge together within a few steps, so stepping the
    # whole batch costs each point a few map evaluations, inside the boundary
    # (t < 0) too.  A disk or an ellipse is inverted exactly by its seed: one
    # evaluation per batch
    m = all_preset_models[preset].map
    sizes = _counting_map(monkeypatch)
    rng = np.random.default_rng(3)
    circle = np.exp(2j * np.pi * np.arange(8) / 8)
    batches = [np.concatenate([[3.0, 0.5 + 2.0j, 3.5], m.psi(0.95 * circle)])]
    for N in (100, 1000, 10000):
        t = np.concatenate([rng.uniform(0.0, 6.0, 256), rng.uniform(-1.0, 0.0, 64)])
        batches.append(m.psi((1.0 + t * np.log(N) / N) * np.exp(2j * np.pi * rng.random(t.size))))
    for zs in batches:
        sizes.clear()
        _, ok = map_forward_many(m, zs)
        assert ok.all(), preset
        if len(m.tail) <= 2:
            assert sizes == [zs.size], (preset, len(sizes))
        else:
            assert sum(sizes) <= 6 * zs.size, (preset, zs.size, len(sizes))


def test_capacity_values():
    assert po.disk_map().cap == 1.0
    assert po.disk_map(radius=2.5).cap == 2.5
    assert po.ellipse_map(2, 1).cap == 1.5


def test_capacity_scaling_law():
    m = po.ellipse_map(2, 1)
    lam = 3.7
    scaled = ExteriorMap(lam * m.cap, lam * m.tail)
    assert scaled.cap == pytest.approx(lam * m.cap)


def test_orthostaticity_validation():
    with pytest.raises(ConfigError):
        ExteriorMap(-1.0, [])
    with pytest.raises(ConfigError):
        ExteriorMap(0.0, [])


def test_univalence_margin_guard():
    # psi' of the 2x1 ellipse vanishes at |zeta| = 1/sqrt(3); the estimated margin lies outside
    m = po.ellipse_map(2, 1)
    assert m.univalence_margin > 1 / np.sqrt(3)


@pytest.mark.parametrize("make, modulus", [
    (lambda: ExteriorMap(1.0, [0, 1.44]), "1.2"),      # zeros of psi' at +-1.2
    (lambda: ExteriorMap(1.0, [0, 3.0]), "1.732"),     # at +-sqrt(3)
    (lambda: po.ellipse_map(1, 0.015), "0.9851"),          # flatter than 50:1
    (lambda: po.ExteriorMap(1.0, [0, 1.44]), "1.2"),       # the class itself derives it
], ids=["zeta+1.44/zeta", "zeta+3/zeta", "flat-ellipse", "constructor"])
def test_zero_of_psi_prime_at_or_above_the_margin_is_refused(make, modulus):
    # the margin is capped at 0.98, so a zero of psi' there lies in the collar
    with pytest.raises(ConfigError, match=rf"\|zeta\| = {modulus}, not below the univalence "
                                          r"margin 0\.98"):
        make()


def test_univalence_margin_is_derived_not_given():
    # a margin passed in would bypass the refusal above
    with pytest.raises(TypeError):
        po.ExteriorMap(1.0, [0, 1.44], 0.5)
    assert po.ExteriorMap(1.5, [0, 0.5]).univalence_margin == po.ellipse_map(2, 1).univalence_margin


def test_zero_of_psi_prime_below_the_cap_keeps_the_capped_margin():
    # zeros at +-sqrt(0.95) = 0.975: 1.05 times that is capped to 0.98, above it
    assert ExteriorMap(1.0, [0, 0.95]).univalence_margin == 0.98


def test_pullback_constant_weight():
    ws = po.pullback_weight(po.disk_map(), po.constant_weight(1.0), 8, 0.7)
    assert np.max(np.abs(ws.pullback.coeffs)) == 0.0
    assert ws.fit_residual < 1e-14


def test_pullback_disk_linear_weight():
    alpha = 0.3
    ws = po.pullback_weight(po.disk_map(), po.exp_re_linear_weight(alpha), 8, 0.7)
    h = ws.pullback
    assert h.bandwidth == 16
    assert abs(h.coeff(1) - alpha) < 1e-14
    rest = h.coeffs.copy()
    rest[16 + 1] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12


def test_pullback_is_the_laurent_composition():
    # P(psi) for a cubic P and a tail with a gap, against P evaluated at psi(zeta)
    m = ExteriorMap(1.2, [0.1j, 0.2, 0.0, -0.05 + 0.02j])
    poly = np.array([0.3, -0.2 + 0.1j, 0.15, 0.05j])
    h = po.pullback_weight(m, po.exp_re_poly_weight(poly), 12, 0.8).pullback
    zeta = np.array([r * np.exp(2j * np.pi * t) for r in (0.85, 1.0, 1.2) for t in (0.1, 0.45, 0.8)])
    want = np.polyval(poly[::-1], m.psi(zeta))
    scale = np.polyval(np.abs(poly[::-1]), np.abs(m.psi(zeta)))
    assert np.max(np.abs(h.evaluate(zeta) - want) / scale) <= 1e-14


def test_pullback_ellipse_fit_residual():
    ws = po.pullback_weight(po.ellipse_map(2, 1), po.exp_re_linear_weight(0.5), 24, 0.75)
    assert ws.fit_residual <= 1e-10


def test_pullback_sampled_path_matches_exact():
    # black-box evaluator forces the Fourier + radial least-squares route
    target = po.exp_re_linear_weight(0.3)
    blackbox = WeightDef(target)
    m = po.disk_map()
    ws = po.pullback_weight(m, blackbox, 6, 0.7)
    exact = po.pullback_weight(m, target, 6, 0.7)
    assert ws.fit_residual <= 1e-9
    assert np.max(np.abs(ws.pullback.coeffs - exact.pullback.coeffs)) < 1e-8


def test_pullback_positivity_guard():
    bad = WeightDef(lambda z: np.real(z))  # negative on part of the collar
    with pytest.raises((PositivityError, po.WeightResolutionError)):
        po.pullback_weight(po.disk_map(), bad, 6, 0.7)


def test_blackbox_harmonic_weight_reproduces_F():
    # the harmonic fit from two circles recovers the exact outer data
    target = po.exp_re_linear_weight(0.3)
    for m in (po.disk_map(), po.ellipse_map(2, 1)):
        exact = po.szego(po.pullback_weight(m, target, 12, 0.75))
        fitted = po.szego(po.pullback_weight(m, WeightDef(target), 12, 0.75))
        assert (fitted.F - exact.F).linf() <= FIT_TOL
        assert abs(fitted.v_infinity - exact.v_infinity) <= FIT_TOL


def test_nonharmonic_blackbox_weight_is_refused():
    # log omega = 0.01 |z|^2 is not harmonic: no (F, E) pair represents it
    radial = WeightDef(lambda z: np.exp(0.01 * np.abs(z) ** 2))
    with pytest.raises(po.WeightResolutionError, match=r"non-harmonic residual \d\.\d{3}e-0\d"):
        po.pullback_weight(po.disk_map(), radial, 12, 0.7)


@pytest.mark.parametrize("a", [200.0, 300.0])
def test_large_harmonic_weight_asks_for_a_wider_band(a):
    # exp(2 Re P) overflows on the validation grid at P = 300 z, its log
    # 2 Re P does not: the weight is harmonic, and E is too wide for M = 24
    with pytest.raises(po.TruncationOverflowError, match="stage: outer-function.*increase M"):
        po.build_model(po.disk_map(), po.exp_re_poly_weight([0.0, a]), 2, bidegree=24,
                       inner_radius=0.7)


def test_weight_needs_an_evaluator_or_a_polynomial():
    with pytest.raises(ConfigError, match="evaluator or a polynomial"):
        WeightDef(None)
    wd = po.exp_re_poly_weight([0.1, 0.2 - 0.3j])
    z = np.array([0.5 + 0.2j, -1.0, 2.0j])
    want = np.exp(2.0 * np.real(0.1 + (0.2 - 0.3j) * z))
    assert np.max(np.abs(wd(z) / want - 1.0)) <= 1e-15
    assert po.constant_weight(2.5)(z).shape == z.shape


def test_sampled_weight_fit():
    rng = np.random.default_rng(4)
    pts = 1.1 * np.exp(2j * np.pi * rng.random(40))
    truth = po.exp_re_linear_weight(0.2 + 0.1j)
    wd = po.sampled_weight(pts, truth(pts), degree=3)
    zs = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.max(np.abs(wd(zs) - truth(zs))) < 1e-10


def test_szego_constant_weight(disk_const_model):
    sz = disk_const_model.szego
    assert np.max(np.abs(sz.v_exterior.coeffs)) == 0.0
    assert sz.v_infinity == 0.0
    ts = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(sz.omega_flat.evaluate(ts) - 1.0)) < 1e-14


def test_szego_disk_linear_weight(disk_alpha_model):
    sz = disk_alpha_model.szego
    assert abs(sz.v_exterior.coeff(-1) + 0.3) < 1e-13
    assert abs(sz.v_infinity) < 1e-13
    # flattened weight equals exp(2 Re(alpha z - alpha/z)) on the annulus
    zs = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    expect = np.exp(2 * np.real(0.3 * zs - 0.3 / zs))
    assert np.max(np.abs(sz.omega_flat.evaluate(zs) - expect)) < 1e-12


def test_szego_complex_weight_conjugation():
    alpha = 0.2 + 0.3j
    ws = po.pullback_weight(po.disk_map(), po.exp_re_linear_weight(alpha), 12, 0.7)
    sz = po.szego(ws)
    assert abs(sz.v_exterior.coeff(-1) + np.conj(alpha)) < 1e-13
    zs = 0.92 * np.exp(2j * np.pi * np.arange(12) / 12)
    expect = np.exp(2 * np.real(alpha * zs - np.conj(alpha) / zs))
    assert np.max(np.abs(sz.omega_flat.evaluate(zs) - expect)) < 1e-12


def test_szego_infinity_value_is_mean(ellipse_exp_model):
    sz = ellipse_exp_model.szego
    # mode 0 of V o psi equals half the circle mean of -log(omega o psi)
    m, wd = ellipse_exp_model.map, ellipse_exp_model.weight
    ts = np.exp(2j * np.pi * np.arange(512) / 512)
    mean = np.mean(-np.log(wd.omega(m.psi(ts)))) / 2.0
    assert abs(sz.v_infinity - mean) < 1e-12


def _decaying_pullback(seed, K=32, ratio=0.2):
    """A random pullback ``h`` with modes of order ``0.5 ratio^|k|``, narrow
    enough for ``E`` to fit bandwidth ``K``."""
    h = random_circle(np.random.default_rng(seed), K, 0.5)
    return po.CircleSeries(h.coeffs * ratio ** np.abs(np.arange(-K, K + 1)))


def test_outer_function_contour_quadrature_oracle():
    # V is the Schwarz integral of its boundary real part -Re h
    h = _decaying_pullback(17)
    sz = szego_of(h)
    n = 512
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    z = 2.0
    quad = np.mean((z + zeta) / (z - zeta) * -h.evaluate(zeta).real)
    assert abs(sz.v_exterior.evaluate(z) - quad) <= 1e-13


def test_outer_function_real_part_is_minus_half_log_weight():
    h = _decaying_pullback(29)
    sz = szego_of(h)
    v = sz.v_exterior
    re_v = 0.5 * (v + conjugate_on_circle(v))
    assert np.max(np.abs((re_v + 0.5 * (h + conjugate_on_circle(h))).coeffs)) < 1e-15
    # F = V + h is purely imaginary on the circle, mode by mode
    assert not (sz.F + conjugate_on_circle(sz.F)).coeffs.any()


@pytest.mark.parametrize("mode, bad", [(-1, np.nan), (0, complex(0.0, np.nan)), (3, np.inf)])
def test_szego_refuses_a_nonfinite_pullback(mode, bad):
    h = _decaying_pullback(3).coeffs.copy()
    h[h.size // 2 + mode] = bad
    with pytest.raises(ConsistencyError, match="non-finite"):
        szego_of(po.CircleSeries(h))


def test_szego_circle_normalization(all_preset_models):
    ts = np.exp(2j * np.pi * np.arange(256) / 256)
    for name, model in all_preset_models.items():
        resid = np.max(np.abs(model.szego.omega_flat.evaluate(ts) - 1.0))
        assert resid <= 1e-10, name


def test_outer_factor_is_the_flattened_weight(all_preset_models):
    # |E(zeta)|^2 == omega(psi(zeta)) |exp(V(zeta))|^2 on the annulus, E from
    # the circle FFT and the right-hand side from the weight evaluator
    for name, model in all_preset_models.items():
        rho = model.inner_radius
        zeta = np.concatenate([r * np.exp(2j * np.pi * (np.arange(24) + 0.4) / 24)
                               for r in (rho + 0.02, 1.0, 1.0 / rho - 0.02)])
        want = (model.weight.omega(model.map.psi(zeta))
                * np.abs(np.exp(model.szego.v_exterior.evaluate(zeta))) ** 2)
        got = np.abs(model.szego.E.evaluate(zeta)) ** 2
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12, name


def test_omega_flat_is_the_outer_product_of_E(disk_alpha_model):
    sz = disk_alpha_model.szego
    grid = sz.omega_flat
    assert grid.bidegree == sz.E.bandwidth == 2 * 16
    K = grid.bidegree
    assert grid.coeffs[K + 1, K - 2] == sz.E.coeff(1) * np.conj(sz.E.coeff(-2))


def test_phi_prime_matches_difference_quotient():
    m = po.ellipse_map(2, 1)
    z = 2.3 + 0.4j
    zeta = po.map_forward(m, z)
    h = 1e-6
    num = (po.map_forward(m, z + h) - po.map_forward(m, z - h)) / (2 * h)
    assert abs(phi_prime(m, zeta) - num) < 1e-8


def test_load_domain_config_roundtrip():
    cfg = {"map": {"cap": 1.5, "tail": [[0.0, 0.0], [0.5, 0.0]]},
           "weight": {"kind": "exp-re-linear", "alpha": [0.5, 0.0]},
           "rho": 0.75, "M": 20, "K": 40}
    m, wd, rho, M, K = po.load_domain_config(cfg)
    assert m.cap == 1.5 and rho == 0.75 and M == 20 and K == 40
    assert wd.evaluator is None and wd.holo_poly.tolist() == [0.0, 0.5]
    with pytest.raises(ConfigError):
        po.load_domain_config({"map": {"cap": 1.0}, "weight": {"kind": "nope"}})
    for bad in (16.7, 0, -4, "x", True):
        with pytest.raises(ConfigError, match="M must be"):
            po.load_domain_config({**cfg, "M": bad})
    assert po.load_domain_config({**cfg, "M": 16.0, "K": 32})[3] == 16
    with pytest.raises(ConfigError, match=r"K must be the circle bandwidth 2M = 32 \(M = 16\)"):
        po.load_domain_config({**cfg, "M": 16})


def test_ellipse_needs_ordered_positive_axes():
    with pytest.raises(ConfigError, match="ellipse needs a >= b > 0"):
        po.ellipse_map(1, 2)


def test_sampled_weight_refuses_a_nonpositive_sample():
    pts = 1.1 * np.exp(2j * np.pi * np.arange(8) / 8)
    with pytest.raises(PositivityError, match="weight samples must be positive"):
        po.sampled_weight(pts, [1.0] * 7 + [0.0], degree=1)


def test_black_box_weight_vanishing_on_the_collar_is_refused():
    # (|z| - 0.71)^2 vanishes on the first validation circle |zeta| = rho + 0.01
    weight = WeightDef(lambda z: (np.abs(z) - 0.71) ** 2)
    with pytest.raises(PositivityError, match="not strictly positive on the collar"):
        po.pullback_weight(po.disk_map(), weight, 8, 0.7)
