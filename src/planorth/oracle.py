"""Ground truth by brute force: quadrature, orthonormal polynomials, kernels.

The quadrature rule tessellates a starlike domain by a polar fan from the
boundary centroid: tensor Gauss-Legendre cells in (fan radius) x (angle) with
geometric grading of the radial panels toward the boundary, where the mass of
high-degree integrands concentrates.  Area is normalized so the unit disk has
measure one and weights already include the weight function.

Orthonormal polynomials are produced degree by degree: the next basis vector
is the previous orthonormal one multiplied by the coordinate, then
orthogonalized with two passes of classical Gram-Schmidt against all earlier
ones.  This avoids the catastrophic conditioning of raw monomial input and
reaches degree 40+ in double precision, with the recurrence data kept for
stable evaluation anywhere in the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegreeTooHighError, DomainError, NonStarlikeError, PositivityError
from .expansion import ExpansionModel, normalized_eval, positioning_factor
from .geometry import ExteriorMap, WeightSpec, map_forward_many
from .series import CircleSeries


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


def _radial_breaks(layers: int, grade: float = 0.5) -> np.ndarray:
    """Breakpoints on [0, 1] geometrically refined toward 1."""
    pts = [0.0]
    for k in range(layers, 0, -1):
        pts.append(1.0 - grade ** (layers - k + 1))
    pts.append(1.0)
    return np.unique(np.array(pts))


def build_quadrature(m: ExteriorMap, weight: WeightSpec, degree: int,
                     accuracy_check: bool = True) -> QuadratureRule:
    """Polar-fan rule over the domain able to integrate polynomial data of the
    given total degree against the weight.

    Raises :class:`NonStarlikeError` when the boundary is not starlike with
    respect to its centroid (checked by angle monotonicity on 1024 samples)
    and :class:`PositivityError` when the weight is not positive at a node.
    """
    rule = _build_fan(m, weight, degree)
    declared = math.inf
    if accuracy_check:
        finer = _build_fan(m, weight, degree + 12, refine=1.4)
        declared = abs(rule.mass - finer.mass)
    return QuadratureRule(rule.nodes, rule.weights, declared, rule.meta)


def _build_fan(m: ExteriorMap, weight: WeightSpec, degree: int, refine: float = 1.0) -> QuadratureRule:
    degree = max(8, int(degree))
    # starlike check on a dense boundary polygon
    tt = 2 * np.pi * np.arange(1024) / 1024
    bnd = m.psi(np.exp(1j * tt))
    center = np.mean(bnd)
    ang = np.unwrap(np.angle(bnd - center))
    if np.any(np.diff(ang) <= 0):
        raise NonStarlikeError("boundary is not starlike about its centroid")

    q_ang = 10
    n_panels = max(12, int(math.ceil(refine * (2.2 * degree + 48) / q_ang)))
    t_breaks = np.linspace(0.0, 2 * np.pi, n_panels + 1)
    t_nodes, t_weights = _gl_panels(t_breaks, q_ang)

    layers = max(6, int(math.ceil(math.log2(degree + 2))) + 2)
    q_rad = max(18, int(math.ceil(refine * 18)))
    r_nodes, r_weights = _gl_panels(_radial_breaks(layers), q_rad)

    w_b = m.psi(np.exp(1j * t_nodes)) - center          # fan rays
    w_d = 1j * np.exp(1j * t_nodes) * m.psi_prime(np.exp(1j * t_nodes))  # d(boundary)/dt
    jac_ang = np.imag(np.conj(w_b) * w_d)               # positive for ccw starlike
    if np.any(jac_ang <= 0):
        raise NonStarlikeError("fan Jacobian changes sign; domain not starlike about centroid")

    nodes = center + r_nodes[:, None] * w_b[None, :]
    jac = r_nodes[:, None] * jac_ang[None, :] / np.pi   # unit-disk-normalized area
    wts = (r_weights[:, None] * t_weights[None, :]) * jac

    flat_nodes = nodes.ravel()
    flat_wts = wts.ravel()
    om = np.asarray(weight.omega(flat_nodes), dtype=float)
    if np.any(om <= 0):
        raise PositivityError("weight is not positive at a quadrature node")
    meta = {"n_ang_panels": n_panels, "q_ang": q_ang, "layers": layers,
            "q_rad": q_rad, "degree": degree, "n_nodes": int(flat_nodes.size)}
    return QuadratureRule(flat_nodes, flat_wts * om, math.inf, meta)


def ring_quadrature(rho_in: float, n_rad: int = 120, n_ang: int = 512,
                    rho_out: float = 1.0) -> QuadratureRule:
    """Plain-area rule on the ring ``rho_in < |w| < rho_out`` (no weight),
    radially graded toward the outer circle, trapezoid in angle."""
    if not (0 < rho_in < rho_out <= 1.0):
        raise DomainError("need 0 < rho_in < rho_out <= 1")
    layers = max(4, int(math.ceil(math.log2(n_rad))))
    pts = rho_out - (rho_out - rho_in) * 0.5 ** np.arange(1, layers + 1)
    breaks = np.unique(np.concatenate([[rho_in], pts, [rho_out]]))
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
    the monomial coefficients of ``P_n``.  ``gram_residual`` is the largest
    deviation of the discrete Gram matrix from the identity.
    """

    degree: int
    hess: np.ndarray
    kappa: np.ndarray
    coeff_table: np.ndarray
    gram_residual: float
    rule_meta: dict = field(default_factory=dict)

    def evaluate(self, z, upto: int | None = None) -> np.ndarray:
        """Values ``P_0(z) .. P_upto(z)``, shape ``(len(z), upto+1)``."""
        upto = self.degree if upto is None else upto
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        out = np.empty((zs.size, upto + 1), dtype=np.complex128)
        out[:, 0] = self.kappa[0]
        for n in range(1, upto + 1):
            acc = zs * out[:, n - 1]
            for j in range(n):
                acc = acc - self.hess[j, n - 1] * out[:, j]
            out[:, n] = acc / self.hess[n, n - 1]
        return out

    def eval_single(self, z, n: int) -> np.ndarray:
        return self.evaluate(z, upto=n)[:, n] if np.ndim(z) else self.evaluate(z, upto=n)[0, n]

    def monic(self, z, n: int):
        """Monic orthogonal polynomial of degree ``n``."""
        return self.eval_single(z, n) / self.kappa[n]


def oracle_onps(rule: QuadratureRule, N: int, gram_tol: float = 1e-8) -> OraclePolynomials:
    """Orthonormalize ``1, z, z^2, ...`` up to degree ``N`` over the rule.

    Raises :class:`DegreeTooHighError` when the discrete Gram matrix deviates
    from the identity by more than ``gram_tol`` (the rule then cannot resolve
    degree-``2N`` products).
    """
    ndeg = rule.meta.get("degree")
    if ndeg is not None and ndeg < 2 * N:
        raise DegreeTooHighError(
            f"rule sized for degree {ndeg} cannot orthogonalize to degree {N}")
    z = rule.nodes
    w = rule.weights
    Q = np.empty((z.size, N + 1), dtype=np.complex128)
    hess = np.zeros((N + 1, N), dtype=np.complex128)
    kappa = np.empty(N + 1, dtype=float)
    mass = float(np.sum(w))
    Q[:, 0] = 1.0 / math.sqrt(mass)
    kappa[0] = 1.0 / math.sqrt(mass)
    for n in range(1, N + 1):
        v = z * Q[:, n - 1]
        h = np.zeros(n, dtype=np.complex128)
        for _ in range(2):  # two-pass classical Gram-Schmidt
            proj = Q[:, :n].conj().T @ (w * v)
            v = v - Q[:, :n] @ proj
            h += proj
        nrm = math.sqrt(abs(np.sum(w * v * np.conj(v)).real))
        if nrm <= 0 or not np.isfinite(nrm):
            raise DegreeTooHighError(f"breakdown at degree {n}: zero residual norm")
        Q[:, n] = v / nrm
        hess[:n, n - 1] = h
        hess[n, n - 1] = nrm
        kappa[n] = kappa[n - 1] / nrm

    gram = Q.conj().T @ (w[:, None] * Q)
    gram_residual = float(np.max(np.abs(gram - np.eye(N + 1))))
    if gram_residual > gram_tol:
        raise DegreeTooHighError(
            f"Gram residual {gram_residual:.3e} above {gram_tol:.1e}; "
            "increase quadrature resolution or lower the degree")

    coeff = np.zeros((N + 1, N + 1), dtype=np.complex128)
    coeff[0, 0] = kappa[0]
    for n in range(1, N + 1):
        shifted = np.zeros(N + 1, dtype=np.complex128)
        shifted[1:n + 1] = coeff[0:n, n - 1]
        shifted[:n] -= coeff[:n, :n] @ hess[:n, n - 1]
        coeff[:, n] = shifted / hess[n, n - 1]
    return OraclePolynomials(degree=N, hess=hess, kappa=kappa, coeff_table=coeff,
                             gram_residual=gram_residual, rule_meta=dict(rule.meta))


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


def l2_discrepancy(model: ExpansionModel, polys: OraclePolynomials, rule: QuadratureRule,
                   N: int, order: int | None = None, rho1: float | None = None,
                   rho2: float | None = None) -> float:
    """Weighted L2 distance between the oracle polynomial and the cut-off
    expansion: ``|| P_N - chi0 * F_N ||`` over the domain.

    ``chi0`` is the quintic smoothstep in ``|phi(z)|`` rising on
    ``[rho1, rho2]`` (defaults ``rho + 0.05``, ``rho + 0.15``); the expansion
    is extended by zero where ``chi0`` vanishes.
    """
    z = rule.nodes
    P = polys.eval_single(z, N)
    _, chi, sel = _cutoff(model, z, rho1, rho2)
    F = np.zeros_like(P)
    if np.any(sel):
        F[sel] = normalized_eval(model, N, z[sel], order=order, check_validity=False)
    diff2 = np.abs(P - chi * F) ** 2
    return float(math.sqrt(abs(rule.integrate(diff2).real)))


def berezin_expectation(model: ExpansionModel, polys: OraclePolynomials, rule: QuadratureRule,
                        g, N: int, rho1: float | None = None,
                        rho2: float | None = None) -> complex:
    """Quadrature value of ``int G |P_N|^2 omega dA`` for the globally smooth
    test function ``G(z) = chi0(|phi(z)|) g(phi(z))``: the annulus test data
    tapered to zero deep inside the domain by the smoothstep on
    ``[rho1, rho2]``.  Near the boundary ``G`` agrees with ``g o phi``."""
    z = rule.nodes
    zeta, chi, sel = _cutoff(model, z, rho1, rho2)
    G = np.zeros(z.shape, dtype=np.complex128)
    if np.any(sel):
        G[sel] = chi[sel] * g.evaluate(zeta[sel])
    P = polys.eval_single(z, N)
    return rule.integrate(G * np.abs(P) ** 2)


def holomorphic_pairing(model: ExpansionModel, polys: OraclePolynomials, g: CircleSeries,
                        N: int, rho_ring: float = 0.75, n_rad: int = 160,
                        n_ang: int = 768) -> complex:
    """Annulus pairing of an exterior-holomorphic test function against the
    pulled-back oracle polynomial:
    ``int_ring g(w) conj(p_N(w)) |w|^{2N} Omega(w) dA(w)`` where
    ``p_N = P_N(psi(w)) psi'(w) w^{-N} e^{-V(psi(w))}``."""
    ring = ring_quadrature(rho_ring, n_rad=n_rad, n_ang=n_ang)
    w = ring.nodes
    pN = polys.eval_single(model.map.psi(w), N) / positioning_factor(model, N, w)
    omega_flat = model.szego.omega_flat.evaluate(w)
    vals = g.evaluate(w) * np.conj(pN) * np.abs(w) ** (2 * N) * omega_flat
    return ring.integrate(vals)
