import numpy as np
import pytest
from hypothesis import settings
from numpy.polynomial.legendre import leggauss

import planorth as po
from planorth.presets import preset_model

# property tests stay deterministic and cheap inside the tier-1 run
settings.register_profile("planorth", derandomize=True, max_examples=20, deadline=None)
settings.load_profile("planorth")


@pytest.fixture(scope="session")
def disk_const_model():
    return preset_model("disk-const", 4)


@pytest.fixture(scope="session")
def disk_alpha_model():
    return preset_model("disk-expre03", 4)


@pytest.fixture(scope="session")
def ellipse_const_model():
    return preset_model("ellipse-const", 4)


@pytest.fixture(scope="session")
def ellipse_exp_model():
    return preset_model("ellipse-expre", 4)


@pytest.fixture(scope="session")
def all_preset_models(disk_const_model, disk_alpha_model, ellipse_const_model,
                      ellipse_exp_model):
    return {
        "disk-const": disk_const_model,
        "disk-expre03": disk_alpha_model,
        "ellipse-const": ellipse_const_model,
        "ellipse-expre": ellipse_exp_model,
        "perturbed-expre": preset_model("perturbed-expre", 4),
    }


def boundary_oracle(model, N):
    return po.boundary_onps(model.map, model.weight.holo_poly, N)


@pytest.fixture(scope="session")
def disk_alpha_oracle(disk_alpha_model):
    return boundary_oracle(disk_alpha_model, 40)


@pytest.fixture(scope="session")
def disk_const_oracle(disk_const_model):
    return boundary_oracle(disk_const_model, 20)


@pytest.fixture(scope="session")
def ellipse_const_oracle(ellipse_const_model):
    return boundary_oracle(ellipse_const_model, 30)


@pytest.fixture(scope="session")
def ellipse_exp_oracle(ellipse_exp_model):
    return boundary_oracle(ellipse_exp_model, 32)


def polar_rule(boundary, breaks, q, n_ang):
    """Area rule ``dA / pi`` on ``{r b(t)}``, ``b(t) = boundary.psi(e^{it})``,
    for ``r`` from ``breaks[0]`` to ``breaks[-1]``: ``q`` Gauss-Legendre nodes
    per panel in ``r`` times ``n_ang`` trapezoid nodes in ``t``, weights
    ``r Im(conj(b) db/dt) dr dt / pi``: a polar fan of rays from 0 to the
    boundary, the independent reference for the boundary oracle on domains
    starlike about 0.  Returns flat nodes and weights."""
    x, w = leggauss(q)
    a, b = np.asarray(breaks[:-1])[:, None], np.asarray(breaks[1:])[:, None]
    r, dr = ((a + b) / 2 + (b - a) / 2 * x).ravel(), ((b - a) / 2 * w).ravel()
    zeta = np.exp(2j * np.pi * np.arange(n_ang) / n_ang)
    bt, dpsi = boundary.psi_and_prime(zeta)
    jac = np.imag(np.conj(bt) * 1j * zeta * dpsi)
    nodes = r[:, None] * bt[None, :]
    weights = (r * dr)[:, None] * jac[None, :] * (2.0 / n_ang)
    return nodes.ravel(), weights.ravel()


def halving_breaks(start, panels):
    """Breaks of ``panels`` radial panels from ``start`` to 1, each half the
    width of the last."""
    return np.append(1.0 - (1.0 - start) * 0.5 ** np.arange(panels), 1.0)


def ring_rule(rho_in, n_ang):
    """:func:`polar_rule` on the ring ``rho_in < |w| < 1``: nine halving panels
    of 17 nodes."""
    return polar_rule(po.disk_map(), halving_breaks(rho_in, 9), 17, n_ang)


def random_annulus(rng, bidegree, inner_radius, scale=1.0):
    side = 2 * bidegree + 1
    grid = scale * (rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
    return po.AnnulusSeries(grid, inner_radius)


def grid_restrictions(grid, shift, order):
    """Circle modes of ``(-(r d/dr)/2 - shift)^mu`` applied to a centred
    bi-Laurent grid (``grid[M+m, M+n]`` the coefficient of ``z^m conj(z)^n``),
    for ``mu = 0..order``: row ``mu``, column ``2M + m - n``.  A bincount over
    the whole grid, independent of the package's term lists."""
    M = (grid.shape[0] - 1) // 2
    e = np.arange(-M, M + 1)
    idx = (2 * M + e[:, None] - e[None, :]).ravel()
    f = (-(e[:, None] + e[None, :]) / 2.0 - shift).ravel()
    rows, c = [], grid.ravel()
    for _ in range(order + 1):
        rows.append(np.bincount(idx, c.real, 4 * M + 1) + 1j * np.bincount(idx, c.imag, 4 * M + 1))
        c = c * f
    return np.array(rows)


def padded_zero_part(g):
    """The circle-vanishing part ``g_0 = g - g_+ - g_-`` of an annulus series as
    a grid padded to bidegree ``K = 2M``: ``g_+`` sits on the pure-``z`` column
    ``(k, 0)``, ``k <= 0``, and ``g_-`` on the pure-``conj(z)`` row ``(0, -k)``,
    ``k >= 1``, each carrying the restriction's mode ``k``."""
    M, K = g.bidegree, 2 * g.bidegree
    r = grid_restrictions(g.coeffs, 0.0, 0)[0]
    zero = np.zeros((2 * K + 1, 2 * K + 1), dtype=np.complex128)
    zero[M:3 * M + 1, M:3 * M + 1] = g.coeffs
    zero[:K + 1, K] -= r[:K + 1]
    zero[K, :K] -= r[K + 1:][::-1]
    return zero


def random_circle(rng, bandwidth, scale=1.0):
    arr = scale * (rng.standard_normal(2 * bandwidth + 1)
                   + 1j * rng.standard_normal(2 * bandwidth + 1))
    return po.CircleSeries(arr)


def szego_of(h):
    """:func:`planorth.szego` of a bare pullback ``h``, a circle series."""
    return po.szego(po.WeightSpec(None, h, 0.7, 0.0))


def conv2_reference(A, B):
    """Full 2-D convolution of two centred coefficient grids by shifted
    accumulation over the nonzeros of ``A``: the bi-Laurent product as first
    implemented, kept as an independent reference."""
    size = A.shape[0] + B.shape[0] - 1
    out = np.zeros((size, size), dtype=np.complex128)
    sb = B.shape[0]
    for i, j in np.argwhere(A != 0):
        out[i:i + sb, j:j + sb] += A[i, j] * B
    return out
