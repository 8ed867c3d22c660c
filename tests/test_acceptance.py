"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import math
import time

import numpy as np

import planorth as po
from planorth.distributional import distributional_expectation, split_test_function
from planorth.kernels import bw_kernel_diag, off_spectral_point, offspectral_leading
from planorth.oracle import berezin_expectations
from planorth.presets import preset_model

from conftest import solve_hierarchy_triangular


def report(num, name, ok):
    print(f"\nACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_carleman_degeneration():
    t0 = time.monotonic()
    ok = True
    for name in ("disk-const", "ellipse-const"):
        model = preset_model(name, 4)
        for j in range(1, 5):
            ok &= float(np.max(np.abs(model.coeffs.X[j].coeffs))) <= 1e-12
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(1, f"constant-weight corrections vanish ({elapsed:.2f}s)", ok)


def test_criterion_02_carleman_formula():
    t0 = time.monotonic()
    model = preset_model("ellipse-const", 3)
    polys = po.boundary_onps(model.map, model.weight.holo_poly, 30)
    z, N = 3.0, 30
    zeta = po.map_forward(model.map, z)
    carleman = math.sqrt(N + 1) / model.map.psi_prime(zeta) * zeta ** N
    oracle_val = polys.eval_single(z, N)
    err_oracle = abs(oracle_val / carleman - 1.0)
    err_model = abs(po.normalized_eval(model, N, z) / oracle_val - 1.0)
    elapsed = time.monotonic() - t0
    ok = err_oracle <= 1e-5 and err_model <= 1e-5 and elapsed < 30.0
    report(2, f"classical constant-weight formula at N=30 "
              f"(oracle {err_oracle:.1e}, expansion {err_model:.1e}, {elapsed:.1f}s)", ok)


def test_criterion_03_pointwise_rate_law():
    t0 = time.monotonic()
    model = preset_model("disk-expre03", 3)
    polys = po.boundary_onps(model.map, model.weight.holo_poly, 40)
    z = 2.0
    zeta = po.map_forward(model.map, z)
    base = (abs(1.0 / model.map.psi_prime(zeta))
            * abs(np.exp(model.szego.v_exterior.evaluate(zeta))))
    Ns = np.arange(8, 41, 4)
    ok = True
    slopes = []
    for order in (0, 1, 2):
        errs = []
        for N in Ns:
            scale = po.monic_prefactor(model, N) * base * abs(zeta) ** N
            errs.append(abs(polys.monic(z, N)
                            - po.monic_eval(model, N, z, order=order)) / scale)
        slope = float(np.polyfit(np.log(Ns.astype(float)), np.log(errs), 1)[0])
        slopes.append(slope)
        ok &= abs(slope + (order + 1)) <= 0.35
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(3, "pointwise rate slopes " + ", ".join(f"{s:.2f}" for s in slopes)
           + f" ({elapsed:.1f}s)", ok)


def test_criterion_04_l2_discrepancy_rate(disk_alpha_model, disk_alpha_oracle):
    t0 = time.monotonic()
    polys = disk_alpha_oracle
    d12, d24 = po.l2_discrepancies(disk_alpha_model, polys, [(12, 1), (24, 1)])
    ratio = d24 / d12
    elapsed = time.monotonic() - t0
    ok = 0.25 / 1.6 <= ratio <= 0.25 * 1.6 and elapsed < 120.0
    report(4, f"L2 discrepancy ratio 24/12 = {ratio:.3f} ({elapsed:.1f}s)", ok)


def test_criterion_05_hierarchy_residuals(all_preset_models):
    ok = True
    worst_res, worst_agree = 0.0, 0.0
    for name, model in all_preset_models.items():
        alt = solve_hierarchy_triangular(model.szego, 4)
        for p in range(1, 5):
            worst_res = max(worst_res, po.hierarchy_residual(model.coeffs, model.szego, p))
        worst_agree = max(worst_agree,
                          max((model.coeffs.X[j] - alt.X[j]).linf() for j in range(5)))
    ok &= worst_res <= 1e-9 and worst_agree <= 1e-10
    report(5, f"jump residuals {worst_res:.1e}, solver agreement {worst_agree:.1e}", ok)


def test_criterion_06_circle_normalization(all_preset_models):
    ts = np.exp(2j * np.pi * np.arange(256) / 256)
    worst = 0.0
    for name, model in all_preset_models.items():
        worst = max(worst, float(np.max(np.abs(model.szego.omega_flat.evaluate(ts) - 1.0))))
    ok = worst <= 1e-10
    report(6, f"flattened weight on circle within {worst:.1e} of 1", ok)


def test_criterion_07_leading_coefficient(disk_const_model):
    ne = disk_const_model.norm
    ok = abs(ne.d[0] - 0.5) <= 1e-10 and abs(ne.d[1] + 0.125) <= 1e-10
    kerr = abs(po.leading_coeff(disk_const_model, 24, order=2) - 5.0) / 5.0
    ok &= kerr <= 2e-4
    report(7, f"norm constants (d1, d2) exact, kappa_24 rel err {kerr:.1e}", ok)


def test_criterion_08_distributional(disk_alpha_model, disk_alpha_oracle):
    t0 = time.monotonic()
    polys = disk_alpha_oracle
    model = disk_alpha_model
    g = po.annulus_from_terms({(1, 1): 1.0, (0, 0): -1.0},
                              model.szego.omega_flat.bidegree, model.inner_radius)
    sp = split_test_function(g)
    oracle = dict(zip((16, 32), berezin_expectations(model, polys, g.terms(), [16, 32])))
    drop = abs(oracle[16]) / abs(oracle[32])      # both leading values' limit is 0
    ok = 2 / 1.6 <= drop <= 2 * 1.6
    errs = {N: abs(distributional_expectation(model, sp, N, order=1) - oracle[N])
            for N in (16, 32)}
    ok &= errs[16] / errs[32] >= 2 ** 1.5
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(8, f"boundary expectation drop {drop:.2f}, error ratio "
              f"{errs[16] / errs[32]:.2f} ({elapsed:.1f}s)", ok)


def test_criterion_09_offspectral(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
    pt = off_spectral_point(disk_alpha_model.map, 2.0)
    z = 2.5
    errs = {}
    for N in (16, 32):
        knorm = (abs(po.oracle_kernel(polys, z, 2.0, upto=N))
                 / math.sqrt(po.oracle_kernel(polys, 2.0, 2.0, upto=N).real))
        errs[N] = abs(knorm / abs(offspectral_leading(disk_alpha_model, pt, N, z)) - 1.0)
    factor = errs[16] / errs[32]
    ok = 1.4 <= factor <= 2.8
    report(9, f"off-spectral modulus error improvement {factor:.2f}", ok)


def test_criterion_10_kernel_band_bound():
    m = po.disk_map()
    sups = []
    for N in (10, 20, 40, 80):
        vals = [bw_kernel_diag(0.5, m, N, r * np.exp(0.37j))
                for r in np.linspace(0.7, 1.0, 25)]
        sups.append(max(vals) / N ** 2)
    spread = (max(sups) - min(sups)) / max(sups)
    ok = spread < 0.25
    report(10, f"diagonal kernel sup/N^2 spread {100 * spread:.1f}%", ok)


def test_criterion_11_watson_bounds():
    kappa = 6
    jet = po.JetAtZero([(-1.0) ** j for j in range(kappa + 1)], 1.0)
    ok = True
    for lam in (5.0, 10.0, 20.0, 40.0):
        val, bound = po.watson_sum(jet, lam)
        ok &= abs(val - 1.0 / (lam + 1.0)) <= bound
    report(11, "Laplace partial sums within stated remainder bounds", ok)
