"""Ground truth by brute force: quadrature, orthonormal polynomials, kernels.

The quadrature rule tessellates a starlike domain by a polar fan from the
boundary centroid: equispaced trapezoid nodes in the fan angle, where the
integrand is periodic and the rule converges geometrically, times
Gauss-Legendre panels in the fan radius, graded geometrically toward the
boundary, where the mass of high-degree integrands concentrates.  Area is
normalized so the unit disk has measure one and weights already include the
weight function.

Orthonormal polynomials are produced degree by degree: the next basis vector
is the previous orthonormal one multiplied by the coordinate, then
orthogonalized with one pass of classical Gram-Schmidt against all earlier
ones, and a second pass only where the first cancels more than a factor
``1/sqrt(2)`` of its norm (the test of Daniel, Gragg, Kaufman and Stewart).
This avoids the catastrophic conditioning of raw monomial input and
reaches degree 40+ in double precision, with the recurrence data kept for
stable evaluation anywhere in the plane.  The orthonormal basis itself is kept
too: column ``n`` is ``P_n`` at the nodes of the rule it was built on.  The
Gram check sums ``Q^H W Q`` over blocks of ``GRAM_BLOCK`` nodes, so it never
holds a weighted copy of the whole basis.

Comparisons against the expansion take their node data once per rule: the
batch forms :func:`l2_discrepancies` and :func:`berezin_expectations` map the
nodes once, read ``P_N`` from the kept basis and evaluate the degree-free
factors ``phi'``, ``e^V`` and ``g o phi`` once, so each further degree or order
costs ``O(nodes)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegreeTooHighError, DomainError, NonStarlikeError, PositivityError
from .expansion import ExpansionModel, normalized_at, position_frame, positioning_factor
from .geometry import ExteriorMap, WeightSpec, map_forward_many
from .series import CircleSeries

RADIAL_GRADE = 0.5      # ratio of successive radial panel widths toward the boundary
GRAM_TOL = 1e-8         # largest Gram deviation oracle_onps accepts
GRAM_BLOCK = 2048       # basis rows per block of the Gram check's Q^H W Q sum
PAIRING_N_RAD = 160     # radial nodes of the holomorphic_pairing ring rule
PAIRING_N_ANG = 768     # angular nodes of the holomorphic_pairing ring rule


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights (area element and weight function included)."""

    nodes: np.ndarray
    weights: np.ndarray
    declared_accuracy: float
    meta: dict = field(default_factory=dict)

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def _gl_panels(breaks: np.ndarray, q: int):
    """Gauss-Legendre nodes/weights composited over consecutive panels."""
    x, w = leggauss(q)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _radial_breaks(layers: int) -> np.ndarray:
    """Breakpoints on [0, 1] geometrically refined toward 1."""
    pts = [0.0]
    for k in range(layers, 0, -1):
        pts.append(1.0 - RADIAL_GRADE ** (layers - k + 1))
    pts.append(1.0)
    return np.unique(np.array(pts))


def build_quadrature(m: ExteriorMap, weight: WeightSpec, degree: int) -> QuadratureRule:
    """Polar-fan rule over the domain able to integrate polynomial data of the
    given total degree against the weight.  Its declared accuracy is the larger
    of the mass difference and the relative difference of the degree-``d``
    moment ``int |z - center|^d omega dA`` to a finer rule (degree + 12, 1.4
    times the nodes per direction).

    Raises :class:`NonStarlikeError` when the boundary is not starlike with
    respect to its centroid (checked by angle monotonicity on 1024 samples)
    and :class:`PositivityError` when the weight is not positive at a node.
    """
    center = _fan_center(m)
    rule = _build_fan(m, weight, center, degree)
    finer = _build_fan(m, weight, center, degree + 12, refine=1.4)
    d = rule.meta["degree"]
    moment, finer_moment = (r.integrate(np.abs(r.nodes - center) ** d).real for r in (rule, finer))
    accuracy = max(abs(rule.mass - finer.mass), abs(moment / finer_moment - 1.0))
    return QuadratureRule(rule.nodes, rule.weights, accuracy, rule.meta)


def _fan_center(m: ExteriorMap) -> complex:
    """Boundary centroid, checked to be a star center on a dense boundary polygon."""
    tt = 2 * np.pi * np.arange(1024) / 1024
    bnd = m.psi(np.exp(1j * tt))
    center = complex(np.mean(bnd))
    ang = np.unwrap(np.angle(bnd - center))
    if np.any(np.diff(ang) <= 0):
        raise NonStarlikeError("boundary is not starlike about its centroid")
    return center


def _build_fan(m: ExteriorMap, weight: WeightSpec, center: complex, degree: int,
               refine: float = 1.0) -> QuadratureRule:
    degree = max(8, int(degree))
    n_ang = 2 * int(math.ceil(refine * (0.6 * degree + 12)))
    t_nodes = 2 * np.pi * np.arange(n_ang) / n_ang
    t_weight = 2 * np.pi / n_ang

    layers = max(4, int(math.ceil(math.log2(degree + 2))) - 2)
    q_rad = max(18, int(math.ceil(refine * 18)))
    r_nodes, r_weights = _gl_panels(_radial_breaks(layers), q_rad)

    w_b = m.psi(np.exp(1j * t_nodes)) - center          # fan rays
    w_d = 1j * np.exp(1j * t_nodes) * m.psi_prime(np.exp(1j * t_nodes))  # d(boundary)/dt
    jac_ang = np.imag(np.conj(w_b) * w_d)               # positive for ccw starlike
    if np.any(jac_ang <= 0):
        raise NonStarlikeError("fan Jacobian changes sign; domain not starlike about centroid")

    nodes = center + r_nodes[:, None] * w_b[None, :]
    jac = r_nodes[:, None] * jac_ang[None, :] / np.pi   # unit-disk-normalized area
    wts = (r_weights[:, None] * t_weight) * jac

    flat_nodes = nodes.ravel()
    flat_wts = wts.ravel()
    om = np.asarray(weight.omega(flat_nodes), dtype=float)
    if np.any(om <= 0):
        raise PositivityError("weight is not positive at a quadrature node")
    meta = {"n_ang": n_ang, "layers": layers, "q_rad": q_rad, "degree": degree,
            "n_nodes": int(flat_nodes.size)}
    return QuadratureRule(flat_nodes, flat_wts * om, math.inf, meta)


def ring_quadrature(rho_in: float, n_rad: int = 120, n_ang: int = 512) -> QuadratureRule:
    """Plain-area rule on the ring ``rho_in < |w| < 1`` (no weight),
    radially graded toward the unit circle, trapezoid in angle."""
    if not (0 < rho_in < 1.0):
        raise DomainError("need 0 < rho_in < 1")
    layers = max(4, int(math.ceil(math.log2(n_rad))))
    pts = 1.0 - (1.0 - rho_in) * 0.5 ** np.arange(1, layers + 1)
    breaks = np.unique(np.concatenate([[rho_in], pts, [1.0]]))
    q = max(10, n_rad // max(1, len(breaks) - 1))
    r_nodes, r_weights = _gl_panels(breaks, q)
    t = 2 * np.pi * np.arange(n_ang) / n_ang
    nodes = (r_nodes[:, None] * np.exp(1j * t)[None, :]).ravel()
    wts = (r_weights[:, None] * np.full(n_ang, 2 * np.pi / n_ang)[None, :]
           * r_nodes[:, None] / np.pi).ravel()
    return QuadratureRule(nodes, wts, math.inf, {"kind": "ring", "rho_in": rho_in})


@dataclass(frozen=True, eq=False)
class OraclePolynomials:
    """Orthonormal polynomials from quadrature orthogonalization.

    Column ``n-1`` of ``hess`` holds the projections of ``z * P_{n-1}`` onto
    ``P_0 .. P_{n-1}`` with the normalizing entry on the subdiagonal,
    ``kappa[n]`` the positive leading coefficients, and ``coeff_table[:, n]``
    the monomial coefficients of ``P_n``.  ``gram_residuals[n]`` is the largest
    deviation from the identity in row and column ``n`` of the leading
    ``(n+1) x (n+1)`` block of the discrete Gram matrix; ``gram_residual`` is
    their maximum.  ``basis[:, n]`` holds ``P_n`` at the nodes of ``rule``, the
    rule it was orthonormalized on.
    """

    degree: int
    hess: np.ndarray
    kappa: np.ndarray
    coeff_table: np.ndarray
    gram_residuals: np.ndarray
    rule: QuadratureRule = field(repr=False)
    basis: np.ndarray = field(repr=False)

    @property
    def gram_residual(self) -> float:
        return float(np.max(self.gram_residuals))

    def evaluate(self, z, upto: int | None = None) -> np.ndarray:
        """Values ``P_0(z) .. P_upto(z)``, shape ``(len(z), upto+1)``."""
        upto = self.degree if upto is None else upto
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        out = np.empty((zs.size, upto + 1), dtype=np.complex128, order="F")
        out[:, 0] = self.kappa[0]
        for n in range(1, upto + 1):
            out[:, n] = ((zs * out[:, n - 1] - out[:, :n] @ self.hess[:n, n - 1])
                         / self.hess[n, n - 1])
        return out

    def at_rule(self, rule: QuadratureRule, degrees=None) -> np.ndarray:
        """Values ``P_n`` at the nodes of ``rule`` for ``n`` in ``degrees``
        (default all), shape ``(nodes, len(degrees))``: columns of ``basis`` on
        the rule the polynomials were built on, the recurrence elsewhere."""
        if rule is self.rule:
            return self.basis if degrees is None else self.basis[:, degrees]
        degrees = list(range(self.degree + 1)) if degrees is None else degrees
        return self.evaluate(rule.nodes, upto=max(degrees))[:, degrees]

    def eval_single(self, z, n: int) -> np.ndarray:
        return self.evaluate(z, upto=n)[:, n] if np.ndim(z) else self.evaluate(z, upto=n)[0, n]

    def monic(self, z, n: int):
        """Monic orthogonal polynomial of degree ``n``."""
        return self.eval_single(z, n) / self.kappa[n]


def _weighted_norm(w: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(abs(float(w @ (v.real ** 2 + v.imag ** 2))))


def oracle_onps(rule: QuadratureRule, N: int) -> OraclePolynomials:
    """Orthonormalize ``1, z, z^2, ...`` up to degree ``N`` over the rule.

    Raises :class:`DegreeTooHighError` when the discrete Gram matrix deviates
    from the identity by more than ``GRAM_TOL`` (the rule then cannot resolve
    degree-``2N`` products).
    """
    ndeg = rule.meta.get("degree")
    if ndeg is not None and ndeg < 2 * N:
        raise DegreeTooHighError(
            f"rule sized for degree {ndeg} cannot orthogonalize to degree {N}")
    z = rule.nodes
    w = rule.weights
    Q = np.empty((z.size, N + 1), dtype=np.complex128, order="F")
    hess = np.zeros((N + 1, N), dtype=np.complex128)
    kappa = np.empty(N + 1, dtype=float)
    mass = float(np.sum(w))
    Q[:, 0] = 1.0 / math.sqrt(mass)
    kappa[0] = 1.0 / math.sqrt(mass)
    for n in range(1, N + 1):
        v = z * Q[:, n - 1]
        h = np.zeros(n, dtype=np.complex128)
        nrm = _weighted_norm(w, v)
        for _ in range(2):  # classical Gram-Schmidt, repeated once on heavy cancellation
            before = nrm
            proj = ((w * v).conj() @ Q[:, :n]).conj()
            v = v - Q[:, :n] @ proj
            h += proj
            nrm = _weighted_norm(w, v)
            if nrm > before / math.sqrt(2):
                break
        if nrm <= 0 or not np.isfinite(nrm):
            raise DegreeTooHighError(f"breakdown at degree {n}: zero residual norm")
        Q[:, n] = v / nrm
        hess[:n, n - 1] = h
        hess[n, n - 1] = nrm
        kappa[n] = kappa[n - 1] / nrm

    gram = np.zeros((N + 1, N + 1), dtype=np.complex128)
    for s in range(0, z.size, GRAM_BLOCK):
        rows = Q[s:s + GRAM_BLOCK]
        wq = w[s:s + GRAM_BLOCK, None] * rows
        gram += np.conj(wq, out=wq).T @ rows
    dev = np.abs(gram - np.eye(N + 1))
    # column n of the upper triangle of max(dev, dev^T): row and column n of block n
    gram_residuals = np.max(np.triu(np.maximum(dev, dev.T)), axis=0)
    if np.max(gram_residuals) > GRAM_TOL:
        raise DegreeTooHighError(
            f"Gram residual {np.max(gram_residuals):.3e} above {GRAM_TOL:.1e}; "
            "increase quadrature resolution or lower the degree")

    coeff = np.zeros((N + 1, N + 1), dtype=np.complex128)
    coeff[0, 0] = kappa[0]
    for n in range(1, N + 1):
        shifted = np.zeros(N + 1, dtype=np.complex128)
        shifted[1:n + 1] = coeff[0:n, n - 1]
        shifted[:n] -= coeff[:n, :n] @ hess[:n, n - 1]
        coeff[:, n] = shifted / hess[n, n - 1]
    return OraclePolynomials(degree=N, hess=hess, kappa=kappa, coeff_table=coeff,
                             gram_residuals=gram_residuals, rule=rule, basis=Q)


def oracle_kernel(polys: OraclePolynomials, z, w, upto: int | None = None) -> complex:
    """Reproducing kernel ``sum_{j<=N} P_j(z) conj(P_j(w))``."""
    upto = polys.degree if upto is None else upto
    pz = polys.evaluate(np.atleast_1d(z), upto=upto)
    pw = polys.evaluate(np.atleast_1d(w), upto=upto)
    return complex(np.sum(pz[0] * np.conj(pw[0])))


def smoothstep(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Quintic smoothstep rising 0 -> 1 on ``[lo, hi]``."""
    t = np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _cutoff(model: ExpansionModel, z: np.ndarray, rho1: float | None, rho2: float | None):
    """``(phi(z), chi0, chi0 > 0)``; ``chi0`` is zero where ``z`` cannot be mapped."""
    rho = model.inner_radius
    rho1 = rho + 0.05 if rho1 is None else rho1
    rho2 = rho + 0.15 if rho2 is None else rho2
    zeta, ok = map_forward_many(model.map, z)
    chi = smoothstep(np.where(ok, np.abs(zeta), 0.0), rho1, rho2)
    return zeta, chi, chi > 0.0


def l2_discrepancies(model: ExpansionModel, polys: OraclePolynomials, rule: QuadratureRule,
                     pairs, rho1: float | None = None, rho2: float | None = None) -> np.ndarray:
    """:func:`l2_discrepancy` for each ``(N, order)`` in ``pairs``.

    The nodes are mapped once, ``phi' e^V`` is evaluated once and ``P_N`` is
    read once per degree; each pair adds ``phi^N``, its partial sum and one
    weighted sum over the nodes."""
    pairs = list(pairs)
    degrees = sorted({N for N, _ in pairs})
    zeta, chi, sel = _cutoff(model, rule.nodes, rho1, rho2)
    zeta, chi_sel = zeta[sel], chi[sel]
    frame = position_frame(model, zeta)
    P = polys.at_rule(rule, degrees)
    out = np.empty(len(pairs))
    for i, (N, order) in enumerate(pairs):
        diff = P[:, degrees.index(N)].copy()
        diff[sel] -= chi_sel * normalized_at(model, N, zeta, order, frame)
        out[i] = math.sqrt(abs(rule.integrate(np.abs(diff) ** 2).real))
    return out


def l2_discrepancy(model: ExpansionModel, polys: OraclePolynomials, rule: QuadratureRule,
                   N: int, order: int | None = None, rho1: float | None = None,
                   rho2: float | None = None) -> float:
    """Weighted L2 distance between the oracle polynomial and the cut-off
    expansion: ``|| P_N - chi0 * F_N ||`` over the domain.

    ``chi0`` is the quintic smoothstep in ``|phi(z)|`` rising on
    ``[rho1, rho2]`` (defaults ``rho + 0.05``, ``rho + 0.15``); the expansion
    is extended by zero where ``chi0`` vanishes.
    """
    return float(l2_discrepancies(model, polys, rule, [(N, order)], rho1, rho2)[0])


def berezin_expectations(model: ExpansionModel, polys: OraclePolynomials, rule: QuadratureRule,
                         g, degrees, rho1: float | None = None,
                         rho2: float | None = None) -> np.ndarray:
    """:func:`berezin_expectation` for each ``N`` in ``degrees``: the nodes
    are mapped and ``G`` evaluated once, each degree adds one weighted sum."""
    degrees = list(degrees)
    zeta, chi, sel = _cutoff(model, rule.nodes, rho1, rho2)
    G = np.zeros(rule.nodes.shape, dtype=np.complex128)
    G[sel] = chi[sel] * g.evaluate(zeta[sel])
    P = polys.at_rule(rule, degrees)
    return np.array([rule.integrate(G * np.abs(P[:, i]) ** 2) for i in range(len(degrees))])


def berezin_expectation(model: ExpansionModel, polys: OraclePolynomials, rule: QuadratureRule,
                        g, N: int, rho1: float | None = None,
                        rho2: float | None = None) -> complex:
    """Quadrature value of ``int G |P_N|^2 omega dA`` for the globally smooth
    test function ``G(z) = chi0(|phi(z)|) g(phi(z))``: the annulus test data
    tapered to zero deep inside the domain by the smoothstep on
    ``[rho1, rho2]``.  Near the boundary ``G`` agrees with ``g o phi``."""
    return complex(berezin_expectations(model, polys, rule, g, [N], rho1, rho2)[0])


def holomorphic_pairing(model: ExpansionModel, polys: OraclePolynomials, g: CircleSeries,
                        N: int, rho_ring: float = 0.75) -> complex:
    """Annulus pairing of an exterior-holomorphic test function against the
    pulled-back oracle polynomial:
    ``int_ring g(w) conj(p_N(w)) |w|^{2N} Omega(w) dA(w)`` where
    ``p_N = P_N(psi(w)) psi'(w) w^{-N} e^{-V(psi(w))}`` and ``Omega = |E|^2``."""
    ring = ring_quadrature(rho_ring, n_rad=PAIRING_N_RAD, n_ang=PAIRING_N_ANG)
    w = ring.nodes
    pN = polys.eval_single(model.map.psi(w), N) / positioning_factor(model, N, w)
    omega_flat = np.abs(model.szego.E.evaluate(w)) ** 2
    vals = g.evaluate(w) * np.conj(pN) * np.abs(w) ** (2 * N) * omega_flat
    return ring.integrate(vals)
