import math

import numpy as np
import pytest

import planorth as po
from planorth.errors import DomainError, NonFiniteError, OffSpectralError
from planorth.kernels import (BW_TAIL_TOL, bw_kernel_diag, off_spectral_point,
                              offspectral_leading, offspectral_phase, outer_rho)
from planorth.oracle import ring_quadrature


def test_boundary_modulus_identity(disk_alpha_model):
    m = disk_alpha_model.map
    pt = off_spectral_point(m, 2.0)
    zb = np.exp(1j * np.linspace(0.05, 6.2, 17))
    lhs = np.abs(outer_rho(m, pt, zb)) ** 2
    rhs = (abs(pt.image) ** 2 - 1.0) / np.abs(zb - pt.image) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(rhs)


def test_positive_and_nonvanishing(disk_alpha_model):
    m = disk_alpha_model.map
    pt = off_spectral_point(m, 2.0)
    val = outer_rho(m, pt, 2.0)
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(2.0 / math.sqrt(3.0))
    # no zeros on an exterior sample grid, and finite nonzero at large |z|
    grid = (1.0 + np.linspace(0.01, 4, 9))[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)[None, :]
    vals = outer_rho(m, pt, grid.ravel())
    assert np.min(np.abs(vals)) > 0.0
    assert abs(outer_rho(m, pt, 1e6)) > 0.1


def test_outer_value_identity_map():
    m = po.disk_map()
    pt = off_spectral_point(m, 2.0)
    # sqrt(3) * (2*3) / (2 * (2*3 - 1))
    assert outer_rho(m, pt, 3.0) == pytest.approx(3.0 * math.sqrt(3.0) / 5.0)


def test_off_spectral_guard(disk_alpha_model):
    with pytest.raises(OffSpectralError):
        off_spectral_point(disk_alpha_model.map, 0.9)


def test_offspectral_leading_vs_oracle(disk_alpha_model, disk_alpha_oracle):
    _, polys = disk_alpha_oracle
    pt = off_spectral_point(disk_alpha_model.map, 2.0)
    z = 2.5
    errs = {}
    for N in (16, 32):
        knorm = (abs(po.oracle_kernel(polys, z, 2.0, upto=N))
                 / math.sqrt(po.oracle_kernel(polys, 2.0, 2.0, upto=N).real))
        errs[N] = abs(knorm / abs(offspectral_leading(disk_alpha_model, pt, N, z)) - 1.0)
    assert 1.4 <= errs[16] / errs[32] <= 2.8


def test_offspectral_real_symmetry(disk_const_model):
    pt = off_spectral_point(disk_const_model.map, 2.0)
    val = offspectral_leading(disk_const_model, pt, 12, 3.0)
    assert val.imag == pytest.approx(0.0, abs=1e-12 * abs(val))
    assert val.real > 0


def test_offspectral_phase(disk_alpha_model, disk_alpha_oracle):
    _, polys = disk_alpha_oracle
    w = 2.0 * np.exp(1j * np.pi / 6)
    pt = off_spectral_point(disk_alpha_model.map, w)
    z, N = 2.5, 24
    k = (po.oracle_kernel(polys, z, w, upto=N)
         / math.sqrt(po.oracle_kernel(polys, w, w, upto=N).real))
    form = offspectral_leading(disk_alpha_model, pt, N, z)
    diff = np.angle(k / form)
    pred = offspectral_phase(disk_alpha_model, pt, N)
    wrapped = (diff - pred + np.pi) % (2 * np.pi) - np.pi
    assert abs(wrapped) <= 3.0 / N


def test_bw_direct_basis_sum_oracle():
    m = po.disk_map()
    rho = 0.5
    z = np.exp(0.3j)
    val = bw_kernel_diag(rho, m, 10, z)
    ring = ring_quadrature(rho, n_rad=160, n_ang=64)
    acc = 0.0
    for n in range(-80, 11):
        nrm2 = ring.integrate(np.abs(ring.nodes) ** (2 * n)).real
        acc += abs(z ** n) ** 2 / nrm2
    assert abs(val - acc) <= 1e-12 * acc


def test_bw_monotone_in_degree():
    m = po.ellipse_map(2, 1)
    z = m.psi(1.0 * np.exp(0.4j))
    vals = [bw_kernel_diag(0.5, m, N, z) for N in (10, 11, 12, 20)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_bw_growth_outside():
    m = po.disk_map()
    N = 20
    r1, r2 = 1.1, 1.2
    ratio = bw_kernel_diag(0.5, m, N, r2) / bw_kernel_diag(0.5, m, N, r1)
    expect = (r2 / r1) ** (2 * N)
    assert expect / 2.5 <= ratio <= expect * 2.5


def test_bw_band_bound():
    m = po.disk_map()
    sups = []
    for N in (10, 20, 40, 80):
        vals = [bw_kernel_diag(0.5, m, N, r * np.exp(0.37j))
                for r in np.linspace(0.7, 1.0, 25)]
        sups.append(max(vals) / N ** 2)
    assert (max(sups) - min(sups)) / max(sups) < 0.25


def test_bw_domain_guard():
    with pytest.raises(DomainError):
        bw_kernel_diag(0.5, po.disk_map(), 10, 0.4)


def _bw_diag_loop(rho, m, N, z):
    """``bw_kernel_diag`` written out term by term: the head ``n = 0..N`` and
    the tail ``n = -2, -3, ...`` down to ``BW_TAIL_TOL`` of the sum."""
    zeta = po.map_forward(m, z)
    r = abs(zeta)
    acc = r ** -2.0 / math.log(1.0 / rho ** 2)
    for n in range(N + 1):
        acc += (n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2))
    n = -2
    while True:
        term = (n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2))
        acc += term
        if abs(term) < BW_TAIL_TOL * max(1.0, abs(acc)):
            break
        n -= 1
    return acc * abs(1.0 / m.psi_prime(zeta)) ** 2


@pytest.mark.parametrize("N", [8, 1000, 10 ** 4])
def test_bw_diag_matches_the_term_loop(N):
    m = po.ellipse_map(2, 1)
    for r in (0.8, 0.97, 1.0):
        z = m.psi(r * np.exp(0.37j))
        want = _bw_diag_loop(0.5, m, N, z)
        assert abs(bw_kernel_diag(0.5, m, N, z) / want - 1.0) <= 1e-13, r


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_bw_diag_overflow_is_typed():
    # |phi(z)|^(2N) = 1.2^20000 overflows a float
    with pytest.raises(NonFiniteError, match="overflows"):
        bw_kernel_diag(0.5, po.disk_map(), 10 ** 4, 1.2)
