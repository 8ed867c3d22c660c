import math

import numpy as np
import pytest
from hypothesis import settings
from numpy.polynomial.legendre import leggauss

import planorth as po
from planorth.presets import preset_model
from planorth.series import CHOP_TOL, OVERSAMPLE

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


def conjugate_on_circle(f):
    """Series of ``zeta -> conj(f(zeta))`` restricted to ``|zeta| = 1``."""
    return po.CircleSeries(np.conj(f.coeffs)[::-1])


def weighted_derivative_convolved(f, szego):
    """``T f = z df/dz + f + f z dF/dz`` as one full-width convolution with
    ``z dF/dz``, cut to the bandwidth of ``F`` by :func:`planorth.truncate`:
    the reference for the package's stencil."""
    K, Kf = szego.F.bandwidth, f.bandwidth
    dF = szego.F.coeffs * np.arange(-K, K + 1)
    out = np.zeros(2 * (K + Kf) + 1, dtype=np.complex128)
    out[K:K + 2 * Kf + 1] = f.coeffs * np.arange(-Kf, Kf + 1) + f.coeffs
    out = out + np.convolve(f.coeffs, dF)
    return po.truncate(po.CircleSeries(out), K, "weighted derivative")


def circle_exp_fixed(f):
    """``exp(f)`` from a fixed ``OVERSAMPLE (2K+1)``-point transform, chopped
    at ``CHOP_TOL`` and cut to ``K``: the reference for
    :func:`planorth.circle_exp`'s sized transform."""
    K = f.bandwidth
    n = OVERSAMPLE * (2 * K + 1)
    spec = np.fft.ifftshift(np.pad(f.coeffs, (n - 2 * K - 1) // 2))
    e = np.fft.fft(np.exp(np.fft.ifft(spec) * n)) / n
    e[np.abs(e) < CHOP_TOL * np.sum(np.abs(e))] = 0.0
    return po.truncate(po.CircleSeries(np.fft.fftshift(e)), K, "exp")


def solve_hierarchy_triangular(szego, order):
    """Corrections from the triangular sum
    ``X_p = sum_{l<p} (-1)^{p-l+1} Q T^{p-l} X_l``, with the norm constants
    ``c_p = sum_{l<=p} (-1)^{p-l} [T^{p-l} X_l]_0`` from the same iterates: the
    reference that :func:`planorth.solve_hierarchy`'s product form and its
    ``W_p(0)`` are checked against."""
    xs = [po.circle_from_modes({0: 1.0}, szego.F.bandwidth)]
    iterates = {0: [xs[0]]}  # iterates[l][i] = T^i X_l
    c = []
    for p in range(1, order + 1):
        for l in range(p):
            seq = iterates[l]
            while len(seq) < p - l + 1:
                seq.append(po.weighted_derivative(seq[-1], szego))
        acc = None
        for l in range(p):
            term = po.hardy_project(iterates[l][p - l]) * ((-1.0) ** (p - l + 1))
            acc = term if acc is None else acc + term
        Xp = po.hardy_project(acc)
        xs.append(Xp)
        iterates[p] = [Xp]
        c.append(sum((-1.0) ** (p - l) * iterates[l][p - l].coeff(0).real
                     for l in range(p + 1)))
    return po.HierarchyCoeffs(np.stack([x.coeffs for x in xs]), np.array(c))


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


def terms_jet(terms, K, order):
    """Circle jet ``J[nu, K + p] = sum_{m-n=p} c (-(m+n)/2)^nu``, ``nu <= order``,
    of terms ``(m - n, m + n, c)`` with every ``|m - n| <= K``, dense over the
    modes ``|p| <= K``: row ``nu`` restricts ``(-(r d/dr)/2)^nu`` of their sum
    to the unit circle.  Terms of one mode add in their order."""
    p, d, c = (np.asarray(a) for a in terms)
    jet = np.zeros((order + 1, 2 * K + 1), dtype=np.complex128)
    w = c.astype(np.complex128)
    for row in jet:
        np.add.at(row, p + K, w)
        w = w * (-d / 2.0)
    return jet


def zero_jet(terms, order, K):
    """The dense circle jet of ``g_0`` up to ``order`` at bandwidth ``K``, from
    the terms with ``|m - n| <= K``: ``J[nu, p] - (|p|/2)^nu J[0, p]``, the
    harmonic parts' modes scaled by ``(|p|/2)^nu``.  The reference for the
    per-term jet weights of :mod:`planorth.distributional`."""
    p, d, c = terms
    near = np.abs(p) <= K
    jet = terms_jet((p[near], d[near], c[near]), K, order)
    half = np.abs(np.arange(-K, K + 1)) / 2.0
    return jet - half ** np.arange(order + 1)[:, None] * jet[0]


def dense_boundary_terms(model, terms, degrees, order):
    """``(index, values, bound)``: :func:`planorth.distributional_terms` at each
    of ``degrees`` from the dense jet of ``g_0`` at the moment table's
    bandwidth, contracted with every mode of the table, and the same sum
    over the absolute values of its per-term parts, ``|c| ((|m+n|/2)^nu +
    (|m-n|/2)^nu) |B| C(nu+mu, nu) N^-(nu+j+k+mu)``, which bounds the
    rounding of either form."""
    B = model.moments
    K = (B.shape[-1] - 1) // 2
    index = [(nu, j, k) for nu in range(1, order + 1) for j in range(order - nu + 1)
             for k in range(order - nu - j + 1)]
    p, d, c = terms
    near = np.abs(p) <= K
    p, d, c = p[near], d[near], c[near]
    values, bound = np.zeros((2, len(degrees), len(index)), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        jet = zero_jet((p, d, c), order, K)[:, ::-1]   # column K + p holds mode -p
        size = np.abs(c) * ((np.abs(d) / 2.0) ** np.arange(order + 1)[:, None]
                            + (np.abs(p) / 2.0) ** np.arange(order + 1)[:, None])
        for t, (nu, j, k) in enumerate(index):
            for mu in range(order - nu + 1):
                pair = np.dot(jet[nu], B[j, k, mu])
                reach = np.dot(size[nu], np.abs(B[j, k, mu, K - p]))
                for i, N in enumerate(degrees):
                    w = math.comb(nu + mu, nu) * float(N) ** -(nu + j + k + mu)
                    values[i, t] += w * pair
                    bound[i, t] += w * reach
    return index, values, bound.real


class CountingNumpy:
    """``numpy`` for a module, recording the name of every function it calls
    (``calls``) and the shape of what each returned (``shapes``)."""

    def __init__(self):
        self.calls, self.shapes = [], []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            out = attr(*args, **kwargs)
            self.shapes.append(np.shape(out))
            return out

        return counted
