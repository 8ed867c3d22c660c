"""Domains, weights and the outer-function data on the annulus.

A domain is specified through the inverse exterior map ``psi(zeta) =
cap*zeta + a_0 + a_1/zeta + ...`` with ``cap > 0`` (so infinity is fixed and
the derivative there is positive).  The forward map ``phi`` is obtained by
Newton inversion.  A weight is a strictly positive function on the closure of
the domain whose logarithm is real-analytic near the boundary; its pullback
``log(omega(psi(zeta)))`` is carried as an :class:`~planorth.series.AnnulusSeries`.

From the pullback we build the boundary outer function ``V`` (holomorphic on
the exterior, real at infinity, with ``2 Re V = -log omega`` on the boundary)
and the flattened weight ``Omega = exp(2 Re V o psi) * omega o psi``, which is
identically one on the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, ConsistencyError, ConvergenceError,
                     PositivityError, WeightResolutionError)
from .series import (AnnulusSeries, CircleSeries, DEFAULT_TRUNC_TOL,
                     conjugate_lift, herglotz, lift_holomorphic, restrict_to_circle,
                     series_exp)


@dataclass(frozen=True, eq=False)
class ExteriorMap:
    """Inverse exterior map ``psi(zeta) = cap*zeta + sum_j tail[j] zeta^{-j}``.

    ``tail[j]`` is the coefficient of ``zeta**-j`` for ``j = 0, 1, ...``.
    ``univalence_margin`` is a radius ``rho_u < 1`` such that ``psi`` stays
    injective (in particular ``psi'`` zero-free) on ``|zeta| > rho_u``.
    """

    cap: float
    tail: np.ndarray
    univalence_margin: float

    def __post_init__(self):
        if not (self.cap > 0):
            raise ConfigError("map is not orthostatic: leading coefficient must be positive")
        arr = np.array(self.tail, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "tail", arr)

    def psi(self, zeta) -> np.ndarray:
        zs = np.asarray(zeta, dtype=np.complex128)
        out = self.cap * zs
        for j, aj in enumerate(self.tail):
            if j == 0:
                out = out + aj
            elif aj != 0:
                out = out + aj * zs ** (-j)
        return out

    def psi_prime(self, zeta) -> np.ndarray:
        zs = np.asarray(zeta, dtype=np.complex128)
        out = np.full_like(zs, self.cap)
        for j, aj in enumerate(self.tail):
            if j > 0 and aj != 0:
                out = out - j * aj * zs ** (-j - 1)
        return out


def exterior_map(cap: float, tail=(), univalence_margin: float | None = None) -> ExteriorMap:
    """Construct a map, estimating the univalence margin from the zeros of psi'."""
    tail = np.asarray(list(tail), dtype=np.complex128)
    estimated = _estimate_margin(cap, tail)
    if univalence_margin is None:
        univalence_margin = estimated
    elif univalence_margin < estimated / 1.05 - 1e-12:
        raise ConfigError(
            f"declared univalence margin {univalence_margin} lies inside the zero set of "
            f"psi' (largest zero modulus ~ {estimated / 1.05:.4f})")
    m = ExteriorMap(cap, tail, univalence_margin)
    _check_margin(m)
    return m


def _estimate_margin(cap: float, tail: np.ndarray) -> float:
    # zeros of psi'(zeta) = cap - sum_{j>=1} j a_j zeta^{-j-1}; multiply by zeta^{L+1}
    L = len(tail) - 1
    if L < 1:
        return 0.05
    poly = np.zeros(L + 2, dtype=np.complex128)
    poly[0] = cap
    for j in range(1, L + 1):
        poly[j + 1] = -j * tail[j]
    roots = np.roots(poly)
    r = float(np.max(np.abs(roots))) if roots.size else 0.0
    return min(0.98, max(0.05, 1.05 * r))


def _check_margin(m: ExteriorMap, samples: int = 64) -> None:
    radii = np.linspace(m.univalence_margin, 1.5, 24)
    angles = np.exp(2j * np.pi * np.arange(samples) / samples)
    grid = radii[:, None] * angles[None, :]
    dmin = float(np.min(np.abs(m.psi_prime(grid))))
    if dmin <= 1e-12:
        raise ConfigError(
            f"psi' vanishes on the declared collar (min |psi'| = {dmin:.2e}); "
            "raise the univalence margin")


def disk_map(radius: float = 1.0, center: complex = 0.0) -> ExteriorMap:
    return exterior_map(radius, [center])


def ellipse_map(a: float, b: float) -> ExteriorMap:
    """Ellipse with semi-axes ``a >= b > 0``: ``psi(zeta) = (a+b)/2 zeta + (a-b)/2 / zeta``."""
    if not (a >= b > 0):
        raise ConfigError("ellipse needs a >= b > 0")
    return exterior_map((a + b) / 2.0, [0.0, (a - b) / 2.0])


def perturbed_disk_map(eps: complex, k: int) -> ExteriorMap:
    """Unit disk perturbed by a single tail mode: ``psi(zeta) = zeta + eps zeta^{-k}``."""
    tail = [0.0] * (k + 1)
    tail[k] = eps
    return exterior_map(1.0, tail)


def capacity(m: ExteriorMap) -> float:
    """Logarithmic capacity of the domain: the leading coefficient of psi."""
    return float(m.cap)


def map_forward(m: ExteriorMap, z, guess=None, tol: float = 1e-13, maxiter: int = 50):
    """Evaluate ``phi(z)`` (inverse of psi) by Newton iteration.

    Works for points in the exterior or in the analytic collar
    ``|phi(z)| > univalence_margin``.  Raises :class:`ConvergenceError` when
    the iteration leaves the collar or fails to converge.
    """
    zeta, ok = map_forward_many(m, np.atleast_1d(np.asarray(z, dtype=np.complex128)),
                                None if guess is None else np.atleast_1d(guess),
                                tol=tol, maxiter=maxiter)
    if not np.all(ok):
        raise ConvergenceError("Newton inversion left the analytic collar or did not converge")
    return zeta if np.ndim(z) else complex(zeta[0])


def map_forward_many(m: ExteriorMap, zs: np.ndarray, guesses: np.ndarray | None = None,
                     tol: float = 1e-13, maxiter: int = 50):
    """Vectorized Newton inversion; returns ``(zeta, ok_mask)`` without raising."""
    zs = np.asarray(zs, dtype=np.complex128)
    if guesses is None:
        zeta = zs / m.cap
        small = np.abs(zeta) < 1.0
        if np.any(small):
            # points near or inside the boundary: seed on the unit circle at the same angle
            ang = np.angle(zs - (m.tail[0] if len(m.tail) else 0.0))
            zeta = np.where(small, np.exp(1j * ang), zeta)
    else:
        zeta = np.array(guesses, dtype=np.complex128)
    scale = np.maximum(1.0, np.abs(zs))
    ok = np.ones(zs.shape, dtype=bool)
    for _ in range(maxiter):
        r = m.psi(zeta) - zs
        if np.all(np.abs(r) <= tol * scale):
            break
        dp = m.psi_prime(zeta)
        bad = np.abs(dp) < 1e-14
        dp = np.where(bad, 1.0, dp)
        step = r / dp
        cap_len = 0.5 * np.maximum(1.0, np.abs(zeta))
        slen = np.maximum(np.abs(step), 1e-300)
        step = np.where(slen > cap_len, step * cap_len / slen, step)
        zeta = zeta - step
        ok &= ~bad
    resid = np.abs(m.psi(zeta) - zs)
    ok &= resid <= 1e-10 * scale
    ok &= np.abs(zeta) > m.univalence_margin
    return zeta, ok


def phi_prime(m: ExteriorMap, zeta) -> np.ndarray:
    """Derivative of the forward map at ``z = psi(zeta)``: ``1 / psi'(zeta)``."""
    return 1.0 / m.psi_prime(zeta)


class WeightDef:
    """Weight declaration: a global evaluator plus, when available, the
    holomorphic polynomial ``P`` with ``omega = exp(2 Re P)``."""

    def __init__(self, kind: str, evaluator: Callable, holo_poly: np.ndarray | None = None,
                 params: dict | None = None):
        self.kind = kind
        self.evaluator = evaluator
        self.holo_poly = None if holo_poly is None else np.asarray(holo_poly, dtype=np.complex128)
        self.params = params or {}

    def __call__(self, z):
        return self.evaluator(np.asarray(z, dtype=np.complex128))


def constant_weight(value: float = 1.0) -> WeightDef:
    if value <= 0:
        raise ConfigError("constant weight must be positive")
    c = 0.5 * np.log(value)
    return WeightDef("const", lambda z: np.full(np.shape(z), float(value)),
                     holo_poly=np.array([c]), params={"value": value})


def exp_re_poly_weight(coeffs) -> WeightDef:
    """Weight ``omega(z) = exp(2 Re sum_j coeffs[j] z^j)``."""
    poly = np.asarray(list(coeffs), dtype=np.complex128)

    def ev(z):
        z = np.asarray(z, dtype=np.complex128)
        acc = np.zeros(z.shape, dtype=np.complex128)
        for j in range(len(poly) - 1, -1, -1):
            acc = acc * z + poly[j]
        return np.exp(2.0 * np.real(acc))

    return WeightDef("exp-re-poly", ev, holo_poly=poly, params={"coeffs": poly})


def exp_re_linear_weight(alpha: complex) -> WeightDef:
    """Weight ``omega(z) = exp(2 Re(alpha z))``."""
    w = exp_re_poly_weight([0.0, alpha])
    return WeightDef("exp-re-linear", w.evaluator, holo_poly=w.holo_poly,
                     params={"alpha": complex(alpha)})


def sampled_weight(points, values, degree: int = 4) -> WeightDef:
    """Weight fitted from positive samples: least-squares ``exp(2 Re P)`` with
    ``deg P = degree``.  Intended for externally measured weights."""
    pts = np.asarray(points, dtype=np.complex128)
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise PositivityError("weight samples must be positive")
    # 2 Re P(z) = log omega: solve for P's real/imag parts in a real LS system
    target = np.log(vals)
    cols = [np.ones(pts.size)]
    for j in range(1, degree + 1):
        cols.append(2.0 * np.real(pts ** j))
        cols.append(-2.0 * np.imag(pts ** j))
    A = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(A, target, rcond=None)
    poly = np.zeros(degree + 1, dtype=np.complex128)
    poly[0] = 0.5 * sol[0]
    for j in range(1, degree + 1):
        poly[j] = sol[2 * j - 1] + 1j * sol[2 * j]
    w = exp_re_poly_weight(poly)
    return WeightDef("custom-samples", w.evaluator, holo_poly=poly,
                     params={"degree": degree, "n_samples": int(pts.size)})


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Weight attached to a domain: global evaluator, annulus pullback of the
    log-weight, positivity floor and the pullback fit residual."""

    omega: Callable
    pullback: AnnulusSeries
    floor: float
    fit_residual: float
    kind: str = "custom"


def pullback_weight(m: ExteriorMap, weight: WeightDef, bidegree: int, inner_radius: float,
                    fit_tol: float = 1e-9) -> WeightSpec:
    """Fit ``R = log omega(psi(zeta))`` on the annulus ``[rho, 1/rho]``.

    Weights declared through a holomorphic polynomial are composed exactly
    with the Laurent tail of ``psi``; black-box evaluators are fitted by
    Fourier analysis in angle and radial least squares per angular mode.
    The validation residual on a staggered grid is recorded and must stay
    below ``fit_tol``.
    """
    rho = float(inner_radius)
    if not (0 < rho < 1):
        raise ConfigError("inner radius must lie in (0, 1)")
    if rho <= m.univalence_margin:
        raise ConfigError(
            f"inner radius {rho} is not inside the analytic collar "
            f"(univalence margin {m.univalence_margin:.3f})")

    if weight.holo_poly is not None:
        R = _compose_pullback(m, weight.holo_poly, bidegree, rho)
    else:
        R = _fit_pullback(m, weight, bidegree, rho)

    # validation on a staggered grid
    radii = np.linspace(rho + 0.01, 1.0 / rho - 0.01, 7)
    angles = np.exp(1j * (2 * np.pi * (np.arange(33) + 0.37) / 33))
    grid = (radii[:, None] * angles[None, :]).ravel()
    direct = np.log(weight(m.psi(grid)))
    resid = float(np.max(np.abs(R.evaluate(grid) - direct)))
    if resid > fit_tol:
        raise WeightResolutionError(
            f"pullback fit residual {resid:.3e} above tolerance {fit_tol:.1e}; "
            "increase the bidegree or move the inner radius closer to 1")

    omega_min = float(np.min(weight(m.psi(grid))))
    if omega_min <= 0:
        raise PositivityError("weight is not strictly positive on the collar")
    return WeightSpec(weight, R, floor=omega_min, fit_residual=resid, kind=weight.kind)


def _compose_pullback(m: ExteriorMap, poly: np.ndarray, bidegree: int, rho: float) -> AnnulusSeries:
    """Exact Laurent composition ``h = P(psi)``, then ``R = h + conj(h)``."""
    L = len(m.tail) - 1 if len(m.tail) else 0
    deg = len(poly) - 1
    Kmax = max(1, deg * max(1, L)) + deg + 2
    # Laurent coefficients over modes [-Kmax, Kmax]; index Kmax + k
    psi_c = np.zeros(2 * Kmax + 1, dtype=np.complex128)
    psi_c[Kmax + 1] = m.cap
    for j, aj in enumerate(m.tail):
        psi_c[Kmax - j] += aj
    h = np.zeros(2 * Kmax + 1, dtype=np.complex128)
    h[Kmax] = poly[deg]
    for j in range(deg - 1, -1, -1):
        h = np.convolve(h, psi_c)[len(psi_c) // 2: len(psi_c) // 2 + 2 * Kmax + 1]
        h[Kmax] += poly[j]
    hs = CircleSeries(h)
    return lift_holomorphic(hs, bidegree, rho) + conjugate_lift(hs, bidegree, rho)


def _fit_pullback(m: ExteriorMap, weight: WeightDef, M: int, rho: float) -> AnnulusSeries:
    """Sampled fit: FFT in angle on each radius, then radial least squares
    onto the powers ``r**(m+n)`` available on each angular diagonal."""
    n_t = 4 * M + 4
    n_r = 2 * M + 5
    # radii on a Chebyshev grid in [rho, 1/rho]
    theta = (np.arange(n_r) + 0.5) * np.pi / n_r
    radii = 0.5 * (rho + 1.0 / rho) + 0.5 * (1.0 / rho - rho) * np.cos(theta)
    angles = np.exp(2j * np.pi * np.arange(n_t) / n_t)
    with np.errstate(invalid="ignore", divide="ignore"):
        samples = np.log(weight(m.psi(radii[:, None] * angles[None, :])))
    if np.any(~np.isfinite(samples)):
        raise PositivityError("weight evaluator returned non-positive or non-finite values")
    modes = np.fft.fft(samples, axis=1) / n_t  # modes[:, k] ~ coefficient of e^{ikt}
    grid = np.zeros((2 * M + 1, 2 * M + 1), dtype=np.complex128)
    for k in range(-M, M + 1):
        dk = modes[:, k % n_t]
        ns = np.arange(max(-M, -M - k), min(M, M - k) + 1)
        powers = 2 * ns + k
        A = radii[:, None] ** powers[None, :]
        colnorm = np.linalg.norm(A, axis=0)
        beta, *_ = np.linalg.lstsq(A / colnorm, dk, rcond=1e-12)
        beta = beta / colnorm
        for n, b in zip(ns, beta):
            grid[M + n + k, M + n] = b
    R = AnnulusSeries(grid, rho)
    # real-symmetrize: the log-weight is real
    sym = 0.5 * (R.coeffs + np.conj(R.coeffs).T)
    return AnnulusSeries(sym, rho)


@dataclass(frozen=True, eq=False)
class SzegoData:
    """Boundary outer-function data for one (domain, weight) pair.

    ``v_exterior`` holds ``V o psi`` as an exterior circle series,
    ``v_infinity`` its (real) value at infinity, ``omega_flat`` the flattened
    weight on the annulus with ``omega_flat == 1`` on the circle, and
    ``log_omega_flat`` its exponent ``U`` (``omega_flat = exp U``).
    """

    v_exterior: CircleSeries
    v_infinity: float
    omega_flat: AnnulusSeries
    log_omega_flat: AnnulusSeries
    circle_residual: float


def szego(weight: WeightSpec, trunc_tol: float = DEFAULT_TRUNC_TOL) -> SzegoData:
    """Build the outer function and the flattened weight from a pullback.

    ``u = -R`` restricted to the circle is real; ``V o psi`` is half its
    Herglotz transform; ``Omega = exp(2 Re V o psi + R)`` is then identically
    one on the circle (checked on 256 samples).
    """
    R = weight.pullback
    M, rho = R.bidegree, R.inner_radius
    u = restrict_to_circle(-R)
    if not u.is_real(1e-9):
        raise ConsistencyError("restricted log-weight is not real on the circle")
    v = 0.5 * herglotz(u)
    v_inf = v.coeff(0)
    if abs(v_inf.imag) > 1e-10 * max(1.0, abs(v_inf)):
        raise ConsistencyError("outer function is not real at infinity")
    two_re_v = lift_holomorphic(v, M, rho) + conjugate_lift(v, M, rho)
    U = two_re_v + R
    omega_flat = series_exp(U, cap=M, tol=trunc_tol)
    ts = np.exp(2j * np.pi * np.arange(256) / 256)
    residual = float(np.max(np.abs(omega_flat.evaluate(ts) - 1.0)))
    if residual > 1e-8:
        raise ConsistencyError(
            f"flattened weight deviates from 1 on the circle by {residual:.3e}")
    return SzegoData(v_exterior=v, v_infinity=float(v_inf.real), omega_flat=omega_flat,
                     log_omega_flat=U, circle_residual=residual)


def load_domain_config(cfg: dict):
    """Parse the JSON domain/weight config into ``(map, weight_def, rho, M, K)``.

    Schema::

        {"map": {"cap": float, "tail": [[re, im], ...]},
         "weight": {"kind": "const"|"exp-re-linear"|"exp-re-poly"|"custom-samples", ...},
         "rho": float, "M": int, "K": int}
    """
    try:
        mp = cfg["map"]
        cap = float(mp["cap"])
        tail = [complex(re, im) for re, im in mp.get("tail", [])]
        wcfg = cfg.get("weight", {"kind": "const", "value": 1.0})
        kind = wcfg.get("kind", "const")
        if kind == "const":
            wd = constant_weight(float(wcfg.get("value", 1.0)))
        elif kind == "exp-re-linear":
            a = wcfg["alpha"]
            alpha = complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a)
            wd = exp_re_linear_weight(alpha)
        elif kind == "exp-re-poly":
            coeffs = [complex(re, im) for re, im in wcfg["coeffs"]]
            wd = exp_re_poly_weight(coeffs)
        elif kind == "custom-samples":
            pts = [complex(re, im) for re, im in wcfg["points"]]
            wd = sampled_weight(pts, wcfg["values"], int(wcfg.get("degree", 4)))
        else:
            raise ConfigError(f"unknown weight kind {kind!r}")
        rho = float(cfg.get("rho", 0.7))
        M = int(cfg.get("M", 24))
        K = int(cfg.get("K", 2 * M))
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    m = exterior_map(cap, tail)
    return m, wd, rho, M, K
