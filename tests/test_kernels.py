import math
import timeit

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planorth as po
from planorth.errors import DomainError, NonFiniteError, OffSpectralError, OutOfValidityError
from planorth.kernels import (BW_TAIL_TOL, _bw_kernel_diag_at, _ramp_sum, bw_kernel_diag,
                              off_spectral_point, offspectral_leading, offspectral_phase,
                              outer_rho)

from conftest import ring_rule


def test_boundary_modulus_identity(disk_alpha_model):
    m = disk_alpha_model.map
    pt = off_spectral_point(m, 2.0)
    zb = np.exp(1j * np.linspace(0.05, 6.2, 17))
    lhs = np.abs(outer_rho(pt, po.map_forward(m, zb))) ** 2
    rhs = (abs(pt.image) ** 2 - 1.0) / np.abs(zb - pt.image) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(rhs)


def test_positive_and_nonvanishing(disk_alpha_model):
    m = disk_alpha_model.map
    pt = off_spectral_point(m, 2.0)
    val = outer_rho(pt, po.map_forward(m, 2.0))
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(2.0 / math.sqrt(3.0))
    # no zeros on an exterior sample grid, and finite nonzero at large |z|
    grid = (1.0 + np.linspace(0.01, 4, 9))[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)[None, :]
    vals = outer_rho(pt, po.map_forward(m, grid.ravel()))
    assert np.min(np.abs(vals)) > 0.0
    assert abs(outer_rho(pt, po.map_forward(m, 1e6))) > 0.1


def test_outer_value_identity_map():
    m = po.disk_map()
    pt = off_spectral_point(m, 2.0)
    # sqrt(3) * (2*3) / (2 * (2*3 - 1))
    assert outer_rho(pt, po.map_forward(m, 3.0)) == pytest.approx(3.0 * math.sqrt(3.0) / 5.0)


def test_outer_value_far_root():
    # |phi(w)| = 1e200: |a|^2 is beyond the float range, sqrt(1 - |a|^-2) is 1
    pt = po.OffSpectralPoint(w=1e200, image=1e200 + 0j)
    assert outer_rho(pt, 3.0) == pytest.approx(1.0)


def test_offspectral_leading_for_a_far_root_and_a_far_point(ellipse_exp_model):
    # conj(a) zeta would be ~1e310 here; the identity forms no such product,
    # so the kernel is finite and outer_rho is 1, as for a root at 1e250
    far = off_spectral_point(ellipse_exp_model.map, 1e300)
    assert outer_rho(far, po.map_forward(ellipse_exp_model.map, 1e10)) == 1.0
    got = offspectral_leading(ellipse_exp_model, far, 8, 1e10)
    near = offspectral_leading(ellipse_exp_model, off_spectral_point(ellipse_exp_model.map, 1e250),
                               8, 1e10)
    assert np.isfinite(got) and got == near
    assert abs(got) == pytest.approx(7.36e78, rel=1e-3)


def test_off_spectral_guard(disk_alpha_model):
    with pytest.raises(OffSpectralError):
        off_spectral_point(disk_alpha_model.map, 0.9)


@pytest.mark.parametrize("w", [0.1, 1.45])
def test_off_spectral_guard_for_a_root_it_cannot_map(ellipse_exp_model, w):
    # inside the 2x1 ellipse with phi(w) below the univalence margin
    with pytest.raises(OffSpectralError, match="could not be mapped into the analytic collar"):
        off_spectral_point(ellipse_exp_model.map, w)


@pytest.mark.parametrize("N", [-3, 0, 2, 3])
def test_offspectral_leading_refuses_a_degree_below_the_threshold(ellipse_exp_model, N):
    point = off_spectral_point(ellipse_exp_model.map, 3.0)
    with pytest.raises(OutOfValidityError, match=f"degree {N} below the asymptotic threshold"):
        offspectral_leading(ellipse_exp_model, point, N, 3.5)


def test_offspectral_leading_refuses_a_point_it_cannot_map(ellipse_exp_model):
    point = off_spectral_point(ellipse_exp_model.map, 3.0)
    with pytest.raises(OutOfValidityError, match="could not be mapped into the analytic collar"):
        offspectral_leading(ellipse_exp_model, point, 16, np.array([3.5, 0.1]))


def test_offspectral_leading_vs_oracle(disk_alpha_model, disk_alpha_oracle):
    polys = disk_alpha_oracle
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
    polys = disk_alpha_oracle
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
    w, wts = ring_rule(rho, 64)
    acc = 0.0
    for n in range(-80, 11):
        nrm2 = np.sum(wts * np.abs(w) ** (2 * n))
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
    # inside the 2x1 ellipse, below the univalence margin: Newton cannot map it
    with pytest.raises(DomainError, match="could not be mapped"):
        bw_kernel_diag(0.5, po.ellipse_map(2, 1), 10, 0.1)


@pytest.mark.parametrize("N", [8, 128, 10 ** 4])
def test_bw_diag_takes_an_array_of_points(N):
    # one map call and one head sum for a band of points, each value bitwise
    # the scalar call's; a scalar point still gives a float
    m = po.ellipse_map(2, 1)
    z = m.psi(np.linspace(0.7, 1.0, 17) * np.exp(0.37j))
    got = bw_kernel_diag(0.5, m, N, z)
    assert got.shape == z.shape
    want = [bw_kernel_diag(0.5, m, N, p) for p in z]
    assert all(type(v) is float for v in want)
    assert got.tolist() == want
    with pytest.raises(DomainError, match="could not be mapped"):
        bw_kernel_diag(0.5, m, N, np.append(z, 0.1))


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


def test_bw_diag_overflow_is_typed(ellipse_exp_model):
    # |phi(z)|^(2N) = 1.2^20000 overflows a float, as does ellipse-expre at
    # z = 3, N = 2000; neither lets a numpy warning out
    with pytest.raises(NonFiniteError, match="overflows"):
        bw_kernel_diag(0.5, po.disk_map(), 10 ** 4, 1.2)
    with pytest.raises(NonFiniteError, match="overflows"):
        bw_kernel_diag(0.5, ellipse_exp_model.map, 2000, 3.0)


def test_offspectral_overflow_is_typed(ellipse_exp_model):
    point = off_spectral_point(ellipse_exp_model.map, 3.0)
    assert np.isfinite(offspectral_leading(ellipse_exp_model, point, 100, 3.5))
    with pytest.raises(NonFiniteError, match="off-spectral kernel .* degree 2000"):
        offspectral_leading(ellipse_exp_model, point, 2000, 3.5)
    # phi(w) phi(z) = 4.4e349 overflows inside the outer factor, with no numpy warning
    far = off_spectral_point(ellipse_exp_model.map, 1e200)
    with pytest.raises(NonFiniteError, match="off-spectral kernel .* degree 8"):
        offspectral_leading(ellipse_exp_model, far, 8, 1e150)


@pytest.mark.parametrize("r", [0.505, 0.5001])
def test_bw_diag_next_to_rho(r):
    # the tail n <= -2 summed as sum_{m>=1} (m/r^2) q^m/(1-rho^{2m}), q = (rho/r)^2,
    # whose terms shrink only by q: the power form overflows a float here
    rho, N = 0.5, 10
    q = (rho / r) ** 2
    m = np.arange(1, 400001)
    tail = np.sum(m / r ** 2 * q ** m / (1.0 - rho ** (2 * m)))
    n = np.arange(N + 1)
    head = r ** -2 / math.log(1.0 / rho ** 2) + np.sum((n + 1) * r ** (2 * n)
                                                       / (1.0 - rho ** (2 * n + 2)))
    assert abs(bw_kernel_diag(rho, po.disk_map(), N, r) / (head + tail) - 1.0) <= 1e-13


def _bw_head_start(rho):
    """The first ``n`` with ``1 - rho^(2n+2) == 1`` in floats: from there on
    every head term of ``bw_kernel_diag`` is ``(n+1) r^(2n)``."""
    n = 0
    while 1.0 - rho ** (2 * n + 2) != 1.0:
        n += 1
    return n


def _bw_diag_fsum(rho, N, r):
    """``bw_kernel_diag`` on the unit disk (``phi' = 1``) at ``z = r``: its head
    and tail terms, each rounded once, summed exactly by ``math.fsum``."""
    n = np.arange(N + 1)
    head = (n + 1) * r ** (2.0 * n) / (1.0 - rho ** (2 * n + 2))
    x = (rho / r) ** 2 * (rho * rho) ** np.arange(400)
    return math.fsum([r ** -2 / math.log(1.0 / rho ** 2), *head, *(x / (1.0 - x) ** 2 / r ** 2)])


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_bw_head_in_closed_form_matches_the_exact_sum(rho):
    # the head is a Lambert series of closed forms S_{N+1}(r rho^l): series,
    # expm1 and power forms by the size of (N + 1) log (r rho^l)^2, each to
    # 1e-13 of the exactly summed terms, from r = 1 to 1.3 and N = 0 to 10^5,
    # on both sides of the head start n0 and of s = n0 + 256
    n0 = _bw_head_start(rho)
    s = n0 + 256
    for N in (0, n0 - 1, n0, n0 + 1, 10 ** 2, s - 1, s, s + 1, 10 ** 4, 10 ** 5):
        t = math.log(max(N, 2)) / max(N, 2)
        radii = [1.0, 1 + 1e-15, 1 - 1e-15, 1 + 1e-9, 1 - 1e-9, 1 + 1e-4, 1 - 1e-4,
                 1 + t, 1 - t, 0.6, 1.3]
        radii = [r for r in radii if r > rho and 2 * N * math.log(r) < 700]
        got = bw_kernel_diag(rho, po.disk_map(), N, np.array(radii, dtype=complex))
        for r, value in zip(radii, got):   # every form in one batch, as at one point
            want = _bw_diag_fsum(rho, N, r)
            assert abs(value / want - 1.0) <= 1e-13, (N, r)
            assert value == bw_kernel_diag(rho, po.disk_map(), N, r), (N, r)


@settings(max_examples=200)
@given(st.floats(0.05, 0.95), st.integers(0, 10 ** 5), st.data())
def test_bw_diag_sums_its_terms(rho, N, data):
    # any ring, degree and batch of radii outside rho: each value within 1e-13
    # of the exactly summed terms, and bitwise the scalar call's
    radii = data.draw(st.lists(st.floats(rho, 1.3, exclude_min=True), min_size=1, max_size=4))
    try:
        got = bw_kernel_diag(rho, po.disk_map(), N, np.array(radii, dtype=complex))
    except NonFiniteError:
        assume(False)
    for r, value in zip(radii, got):
        assert abs(value / _bw_diag_fsum(rho, N, r) - 1.0) <= 1e-13, (rho, N, r)
        assert value == bw_kernel_diag(rho, po.disk_map(), N, r), (rho, N, r)


@pytest.mark.parametrize("r", [1.01, 1.2, 1.3, 2.0])
def test_bw_diag_overflows_at_the_degree_of_the_term_sum(r):
    # the closed form refuses the first degree at which the terms' running sum
    # leaves the float range, not one before or after
    n = np.arange(int(800 / math.log(r)))
    with np.errstate(over="ignore"):
        run = np.cumsum((n + 1) * r ** (2.0 * n) / (1.0 - 0.25 ** (n + 1)))
    first = int(np.argmin(np.isfinite(run)))
    assert first > 0
    assert math.isfinite(bw_kernel_diag(0.5, po.disk_map(), first - 1, r))
    with pytest.raises(NonFiniteError, match=f"overflows a float at N = {first},"):
        bw_kernel_diag(0.5, po.disk_map(), first, r)


def test_bw_diag_time_does_not_grow_with_the_degree():
    # the head past its first terms is a closed form: N = 10^5 costs what N = 10^2 does
    m, z = po.disk_map(), np.array([1.0 + 0.01j])

    def best(N):
        return min(timeit.repeat(lambda: bw_kernel_diag(0.5, m, N, z), number=20, repeat=15))

    assert best(10 ** 5) <= 2.0 * best(10 ** 2)


def test_ramp_sum_costs_alike_in_its_expm1_and_closed_forms():
    # at r = 1.001, u = 283 takes the expm1 form (|u log r^2| = 0.57) and u =
    # 9719 the closed form (19): one point costs at most twice the other
    r = np.array([1.001])

    def best(u):
        return min(timeit.repeat(lambda: _ramp_sum(u, r), number=200, repeat=15))

    assert best(283) <= 2.0 * best(9719)


@pytest.mark.parametrize("N", [8, 30, 100])
def test_bw_diag_costs_alike_in_one_and_two_forms(N):
    # at |phi| = 1.0005 the l = 0 Lambert term of the head takes the expm1 or
    # series form (|t| < 1) and the others the closed form; at |phi| = 1.2
    # every term takes the closed form.  The near term is one Python-float
    # evaluation, so the two-form point costs about what the other does
    prime = np.array([1.0 + 0.0j])
    best = {}
    for _ in range(15):
        for r in (1.0005, 1.2):
            pts = np.array([r])
            t = timeit.timeit(lambda: _bw_kernel_diag_at(0.5, [N], pts, prime), number=100)
            best[r] = min(best.get(r, math.inf), t)
    assert best[1.0005] <= 1.3 * best[1.2]


def test_bw_diag_refuses_a_negative_degree():
    with pytest.raises(DomainError, match="degree -5 is negative"):
        bw_kernel_diag(0.5, po.disk_map(), -5, 1.2)
    assert bw_kernel_diag(0.5, po.disk_map(), 0, 1.2) > 0.0


def test_bw_diag_refuses_a_ring_too_thin_to_sum():
    with pytest.raises(DomainError, match="too close to 1"):
        bw_kernel_diag(1.0 - 1e-9, po.disk_map(), 10, 1.0)


def test_bw_diag_tiny_rho():
    # rho^2 underflows to 0: the tail vanishes and the head is 1/log(1/rho^2) + sum (n+1)
    val = bw_kernel_diag(1e-200, po.disk_map(), 10, 1.0)
    assert abs(val - (66.0 + 1.0 / (400.0 * math.log(10.0)))) <= 1e-13 * 66.0


def test_bw_kernel_diag_needs_rho_inside_the_unit_interval(disk_const_model):
    with pytest.raises(DomainError, match="need 0 < rho < 1"):
        bw_kernel_diag(1.5, disk_const_model.map, 8, 2.0)
