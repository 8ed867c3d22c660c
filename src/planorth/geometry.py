"""Domains, weights and the outer-function data on the annulus.

A domain is specified through the inverse exterior map ``psi(zeta) =
cap*zeta + a_0 + a_1/zeta + ...`` with ``cap > 0`` (so infinity is fixed and
the derivative there is positive); ``psi`` and ``psi'`` are evaluated by
Horner's scheme in ``1/zeta``.  The forward map ``phi`` is obtained by Newton
inversion (:func:`map_forward_many`), which also hands on ``|zeta|`` and
``psi'(zeta)`` at each root, as its last test formed them.  A weight is a
strictly positive function on the closure of the domain whose logarithm is
harmonic near the boundary; its pullback is ``log(omega(psi(zeta))) = h +
conj(h)`` with a Laurent series ``h``, carried as a
:class:`~planorth.series.CircleSeries`.

From the pullback we build the boundary outer function ``V`` (holomorphic on
the exterior, real at infinity, with ``2 Re V = -log omega`` on the boundary)
and the flattened weight ``Omega = exp(2 Re V o psi) * omega o psi``, which is
identically one on the unit circle.  It factors as ``Omega = E conj(E)`` with
``E = exp(F)`` and ``F = V o psi + h``, so the whole model lives on the circle.
Both ``V o psi`` and ``F`` are explicit maps of the modes of ``h``
(:func:`szego`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigError, ConsistencyError, ConvergenceError,
                     PositivityError, WeightResolutionError)
from .series import (OVERSAMPLE, AnnulusSeries, CircleSeries, _fold, _horner, circle_exp,
                     circle_from_modes, truncate)

NEWTON_TOL = 1e-13     # map_forward stops at |psi(zeta) - z| <= NEWTON_TOL max(1, |z|)
NEWTON_MAXITER = 50    # Newton steps before map_forward gives up
FIT_TOL = 1e-9         # largest pullback fit residual on the validation grid


@dataclass(frozen=True, eq=False)
class ExteriorMap:
    """Inverse exterior map ``psi(zeta) = cap*zeta + sum_j tail[j] zeta^{-j}``.

    ``tail[j]`` is the coefficient of ``zeta**-j`` for ``j = 0, 1, ...``.
    ``psi`` and ``psi'`` are polynomials in ``w = 1/zeta`` past the linear
    term and are evaluated by Horner's scheme.
    ``univalence_margin`` is derived, not given: ``min(0.98, max(0.05, 1.05
    r))`` with ``r`` the largest modulus of a zero of ``psi'``, so ``psi'``
    is zero-free on ``|zeta| > rho_u``; that holds exactly, but it does not
    certify that ``psi`` is injective there.  A map with ``r >= 0.98``, not
    below its margin, is refused with :class:`ConfigError`.
    """

    cap: float
    tail: np.ndarray
    univalence_margin: float = field(init=False)

    def __post_init__(self):
        if not (self.cap > 0):
            raise ConfigError("map is not orthostatic: leading coefficient must be positive")
        arr = np.array(self.tail, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "tail", arr)
        # coefficients of p'(w) for p(w) = sum_j tail[j] w^j
        object.__setattr__(self, "_dtail", np.arange(1, len(arr)) * arr[1:])
        # psi'(zeta) zeta^(L+1) = cap zeta^(L+1) - sum_{j=1..L} j a_j zeta^(L-j), L = len(tail) - 1
        roots = np.roots(np.concatenate([[self.cap, 0.0], -self._dtail]))
        r = float(np.max(np.abs(roots), initial=0.0))
        margin = min(0.98, max(0.05, 1.05 * r))
        if not r < margin:
            raise ConfigError(f"psi' vanishes at |zeta| = {r:.4g}, not below the univalence "
                              f"margin {margin}")
        object.__setattr__(self, "univalence_margin", margin)

    def psi(self, zeta) -> np.ndarray:
        return self._evaluate(zeta, value=True, prime=False)[0]

    def psi_prime(self, zeta) -> np.ndarray:
        return self._evaluate(zeta, value=False, prime=True)[1]

    def psi_and_prime(self, zeta):
        """``(psi(zeta), psi'(zeta))`` sharing one reciprocal ``w = 1/zeta``."""
        return self._evaluate(zeta, value=True, prime=True)

    def prime_at_reciprocal(self, w):
        """``psi'(1/w) = cap - w^2 p'(w)``, ``p(w) = sum_j tail[j] w^j``: the
        constant ``cap`` where the tail stops at ``zeta^0``."""
        if not self._dtail.size:
            return self.cap
        return self.cap - w * w * _horner(self._dtail, w)

    def _evaluate(self, zeta, value: bool, prime: bool):
        # psi = cap zeta + p(w) and psi' = cap - w^2 p'(w) with
        # p(w) = sum_j tail[j] w^j, both polynomials in w by Horner's scheme
        zs = np.asarray(zeta, dtype=np.complex128)
        if len(self.tail) < 2:   # psi = cap zeta + a_0
            a0 = self.tail[0] if len(self.tail) else 0.0
            val = self.cap * zs + a0 if value else None
            der = np.full_like(zs, self.cap) if prime else None
        else:
            w = np.reciprocal(zs)
            val = self.cap * zs + _horner(self.tail, w) if value else None
            der = self.prime_at_reciprocal(w) if prime else None
        return val, der


def disk_map(radius: float = 1.0, center: complex = 0.0) -> ExteriorMap:
    return ExteriorMap(radius, [center])


def ellipse_map(a: float, b: float) -> ExteriorMap:
    """Ellipse with semi-axes ``a >= b > 0``: ``psi(zeta) = (a+b)/2 zeta + (a-b)/2 / zeta``."""
    if not (a >= b > 0):
        raise ConfigError("ellipse needs a >= b > 0")
    return ExteriorMap((a + b) / 2.0, [0.0, (a - b) / 2.0])


def map_forward(m: ExteriorMap, z):
    """Evaluate ``phi(z)`` (inverse of psi) by Newton iteration.

    Works for points in the exterior or in the analytic collar
    ``|phi(z)| > univalence_margin``, to the residual ``NEWTON_TOL``.  Raises
    :class:`ConvergenceError` when the iteration leaves the collar or fails to
    converge in ``NEWTON_MAXITER`` steps.  See :func:`map_forward_many`.
    """
    zeta, ok = map_forward_many(m, np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    if not ok.all():
        raise ConvergenceError("Newton inversion left the analytic collar or did not converge")
    return zeta if np.ndim(z) else complex(zeta[0])


def map_forward_many(m: ExteriorMap, zs: np.ndarray):
    """Vectorized :func:`map_forward`; returns ``(zeta, ok_mask)``, each of the
    shape of ``zs``, without raising.

    A non-finite point drops out at once (``zeta`` NaN, ``ok`` false).  Newton
    starts at :func:`_newton_seed`, so a disk or an ellipse passes the first
    residual test.  On a map whose tail goes past ``1/zeta``, a point seeded
    on the circle that ends not ``ok`` is run again from its Joukowski root
    and takes that run's result where it is ``ok``: from the circle, Newton
    can reach a second preimage below the margin.  See :func:`_newton` for the
    iteration, its safeguards and ``ok``, and :func:`_map_forward` for what
    else the inversion hands on.
    """
    return _map_forward(m, zs)[:2]


def _map_forward(m: ExteriorMap, zs: np.ndarray):
    """:func:`map_forward_many` with ``|zeta|`` and ``psi'(zeta)`` as the last
    Newton test formed them (a retried point's from the retry, NaN at a
    non-finite one): ``(zeta, ok, |zeta|, psi'(zeta))``."""
    zs = np.asarray(zs, dtype=np.complex128)
    z = zs.ravel()
    finite = np.isfinite(z)
    if finite.all():
        mapped = _newton(m, z, _newton_seed(m, z))
    else:
        mapped = (np.full(z.shape, np.nan, dtype=np.complex128), finite.copy(),
                  np.full(z.shape, np.nan), np.full(z.shape, np.nan, dtype=np.complex128))
        for out, part in zip(mapped, _newton(m, z[finite], _newton_seed(m, z[finite]))):
            out[finite] = part
    # the Joukowski root is the exact inverse of a map whose tail stops at
    # 1/zeta, so only a longer tail can have a point worth the second run
    if len(m.tail) > 2 and not mapped[1].all():
        again = np.flatnonzero(~mapped[1] & finite)
        root = _joukowski_root(m, z[again])
        size = np.abs(root)   # a root of 0 (z = a_0 with a_1 = 0) has no reciprocal
        circle = (size > 0.0) & (size < m.univalence_margin)
        again, root = again[circle], root[circle]
        if again.size:
            # psi can overflow at a root far below the margin: that point's
            # residual turns NaN and it stays not ok
            with np.errstate(all="ignore"):
                retry = _newton(m, z[again], root)
            for out, part in zip(mapped, retry):
                out[again[retry[1]]] = part[retry[1]]
    return mapped if zs.ndim == 1 else tuple(a.reshape(zs.shape) for a in mapped)


def _newton(m: ExteriorMap, z: np.ndarray, zeta: np.ndarray):
    """Newton's method for ``psi(zeta) = z`` from the iterates ``zeta``:
    ``(zeta, ok, |zeta|, psi'(zeta))``, the last two from the final tests.

    Each step takes ``psi`` and ``psi'`` from one Horner pass in ``1/zeta``.
    A point freezes at the first iterate whose residual ``|psi(zeta) - z|``
    is at most ``NEWTON_TOL * max(1, |z|)``; every step runs on the whole
    batch, whose points converge together for the batches the evaluators
    map.  Two safeguards guard a step, and each runs only when some point of
    the batch trips it: where ``|psi'| < 1e-14`` the step divides by one
    instead (and the point is marked failed), and a step longer than ``0.5 *
    max(1, |zeta|)`` is cut to that length (looked at only when some step
    exceeds 0.5, the least such cap).  The gates compare and test ``.any()``,
    so a NaN iterate in the batch does not hide the others, and the iterates
    are those of safeguards applied at every step.  ``ok`` is false where
    ``psi'`` nearly vanished at a step, where the final residual exceeds
    ``1e-10 * max(1, |z|)`` or where ``|zeta|`` is not above the univalence
    margin.
    """
    scale = np.maximum(1.0, np.abs(z))
    tol = NEWTON_TOL * scale
    flat = None   # where psi' nearly vanished at some step
    for it in range(NEWTON_MAXITER + 1):
        p, dp = m.psi_and_prime(zeta)
        r = p - z
        ar = np.abs(r)
        # a NaN residual compares false and freezes; an infinite one turns NaN at its step
        live = ar > tol
        if not live.any() or it == NEWTON_MAXITER:
            break
        # gate by comparison and .any(): a NaN in min/max would hide every other point
        bad = np.abs(dp) < 1e-14
        if bad.any():
            flat = bad if flat is None else flat | bad
            dp = np.where(bad, 1.0, dp)
        step = r / dp
        slen = np.abs(step)
        if (slen > 0.5).any():          # 0.5 is the least cap_len there is
            cap_len = 0.5 * np.maximum(1.0, np.abs(zeta))
            slen = np.maximum(slen, 1e-300)
            step = np.where(slen > cap_len, step * cap_len / slen, step)
        zeta = np.where(live, zeta - step, zeta)   # converged points keep their iterate
    modulus = np.abs(zeta)
    ok = (ar <= 1e-10 * scale) & (modulus > m.univalence_margin)
    if flat is not None:
        ok &= ~flat
    return zeta, ok, modulus, dp


def _joukowski_root(m: ExteriorMap, z: np.ndarray) -> np.ndarray:
    """The exterior root of the map's Joukowski part ``cap zeta + a_0 + a_1 /
    zeta = z``: with ``w = z - a_0`` it is ``w / (2 cap) * (1 + sqrt(1 - 4 cap
    a_1 / w / w))``, or ``w / cap`` when ``a_1 = 0``.  The principal square
    root has a non-negative real part, so this is the root of larger modulus,
    and no ``w * w`` is formed that could overflow.  It is the exact inverse of
    every disk and ellipse; ``w = 0``, or a tiny ``w`` that sends ``4 cap a_1 /
    w / w`` past the float range, gives a non-finite root."""
    a0 = m.tail[0] if len(m.tail) else 0.0
    a1 = m.tail[1] if len(m.tail) > 1 else 0.0
    w = z - a0
    if a1 == 0:   # warns only where it overflows, at |w| beyond cap times the float range
        return w / m.cap
    with np.errstate(all="ignore"):
        return w / (2.0 * m.cap) * (1.0 + np.sqrt(1.0 - 4.0 * m.cap * a1 / w / w))


def _newton_seed(m: ExteriorMap, z: np.ndarray) -> np.ndarray:
    """Starting iterates of :func:`map_forward_many` at the points ``z``: the
    :func:`_joukowski_root`, replaced by the point of the unit circle at angle
    ``arg(z - a_0)`` where it lies below the univalence margin or is not
    finite (the centre ``z = a_0``)."""
    seed = _joukowski_root(m, z)
    low = (np.abs(seed) < m.univalence_margin) | ~np.isfinite(seed)
    if low.any():
        a0 = m.tail[0] if len(m.tail) else 0.0
        w = z - a0
        seed = np.where(low, np.exp(1j * np.arctan2(w.imag, w.real)), seed)
    return seed


def phi_prime(m: ExteriorMap, zeta) -> np.ndarray:
    """Derivative of the forward map at ``z = psi(zeta)``: ``1 / psi'(zeta)``."""
    return 1.0 / m.psi_prime(zeta)


class WeightDef:
    """Weight declaration: the holomorphic polynomial ``P`` with
    ``omega = exp(2 Re P)`` or, for a black box, a global evaluator."""

    def __init__(self, evaluator: Callable | None, holo_poly: np.ndarray | None = None):
        if evaluator is None and holo_poly is None:
            raise ConfigError("a weight needs an evaluator or a polynomial P")
        self.evaluator = evaluator
        self.holo_poly = None if holo_poly is None else np.asarray(holo_poly, dtype=np.complex128)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        if self.holo_poly is None:
            return self.evaluator(z)
        acc = np.zeros(z.shape, dtype=np.complex128)   # a constant P gives a bare scalar
        acc += _horner(self.holo_poly, z)
        return np.exp(2.0 * acc.real)


def constant_weight(value: float = 1.0) -> WeightDef:
    if value <= 0:
        raise ConfigError("constant weight must be positive")
    return exp_re_poly_weight([0.5 * np.log(value)])


def exp_re_poly_weight(coeffs) -> WeightDef:
    """Weight ``omega(z) = exp(2 Re sum_j coeffs[j] z^j)``; an empty
    coefficient list names no polynomial and is a :class:`ConfigError`."""
    poly = np.asarray(list(coeffs), dtype=np.complex128)
    if poly.size == 0:
        raise ConfigError("exp-re-poly weight needs at least one coefficient")
    return WeightDef(None, holo_poly=poly)


def exp_re_linear_weight(alpha: complex) -> WeightDef:
    """Weight ``omega(z) = exp(2 Re(alpha z))``."""
    return exp_re_poly_weight([0.0, alpha])


def sampled_weight(points, values, degree: int = 4) -> WeightDef:
    """Weight fitted from positive samples: least-squares ``exp(2 Re P)`` with
    ``deg P = degree``.  Intended for externally measured weights.  The
    samples must determine all ``2 degree + 1`` real unknowns of ``P``
    (``Im P(0)`` does not enter ``omega``); fewer raise :class:`ConfigError`."""
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
    sol, _, rank, _ = np.linalg.lstsq(A, target, rcond=None)
    if rank < A.shape[1]:
        raise ConfigError(
            f"{pts.size} weight samples determine {rank} of the {A.shape[1]} real "
            f"unknowns of a degree-{degree} P")
    poly = np.zeros(degree + 1, dtype=np.complex128)
    poly[0] = 0.5 * sol[0]
    for j in range(1, degree + 1):
        poly[j] = sol[2 * j - 1] + 1j * sol[2 * j]
    return exp_re_poly_weight(poly)


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Weight attached to a domain: the declared weight, the pullback of the
    log-weight and the pullback fit residual.

    ``pullback`` is the Laurent series ``h`` with
    ``log omega(psi(zeta)) = h(zeta) + conj(h(zeta))`` on the annulus
    ``inner_radius < |zeta| < 1/inner_radius``, at bandwidth ``2M``.
    """

    omega: WeightDef
    pullback: CircleSeries
    inner_radius: float
    fit_residual: float

    @property
    def holo_poly(self) -> np.ndarray | None:
        """The polynomial ``P`` with ``omega = |e^P|^2`` (None for a black box)."""
        return self.omega.holo_poly


def pullback_weight(m: ExteriorMap, weight: WeightDef, bidegree: int,
                    inner_radius: float) -> WeightSpec:
    """Resolve ``log omega(psi(zeta)) = h + conj(h)`` at bandwidth ``2 * bidegree``.

    Weights declared through a holomorphic polynomial are composed exactly
    with the Laurent tail of ``psi``; black-box evaluators are fitted for
    their harmonic part from two circles.  The residual on a staggered
    validation grid is recorded and must stay below ``FIT_TOL``: a
    black-box log-weight that is not harmonic near the boundary fails here
    with :class:`WeightResolutionError`.  A declared polynomial is checked
    against ``log omega = 2 Re P(psi)`` itself, which stays finite where
    ``omega`` leaves the float range; a black box must be positive there.
    """
    rho = float(inner_radius)
    if not (0 < rho < 1):
        raise ConfigError("inner radius must lie in (0, 1)")
    if rho <= m.univalence_margin:
        raise ConfigError(
            f"inner radius {rho} is not inside the analytic collar "
            f"(univalence margin {m.univalence_margin:.3f})")

    K = 2 * bidegree
    if weight.holo_poly is not None:
        h = _compose_pullback(m, weight.holo_poly, K)
    else:
        h = _fit_harmonic(m, weight, K, rho)

    # validation on a staggered grid
    radii = np.linspace(rho + 0.01, 1.0 / rho - 0.01, 7)
    angles = np.exp(1j * (2 * np.pi * (np.arange(33) + 0.37) / 33))
    grid = (radii[:, None] * angles[None, :]).ravel()
    pts = m.psi(grid)
    if weight.holo_poly is not None:
        # log omega = 2 Re P, finite where exp(2 Re P) leaves the float range
        log_omega = 2.0 * _horner(weight.holo_poly, pts).real
    else:
        omega = weight(pts)
        if not np.min(omega) > 0:
            raise PositivityError("weight is not strictly positive on the collar")
        log_omega = np.log(omega)
    resid = float(np.max(np.abs(2.0 * h.evaluate(grid).real - log_omega)))
    if resid > FIT_TOL:
        raise WeightResolutionError(
            f"non-harmonic residual {resid:.3e} of the weight pullback above tolerance "
            f"{FIT_TOL:.1e}: only a log-weight harmonic near the boundary is resolved "
            "(see the ROADMAP item 'Non-harmonic log-weights'), at bandwidth 2M")
    return WeightSpec(weight, h, rho, fit_residual=resid)


def _compose_pullback(m: ExteriorMap, poly: np.ndarray, K: int) -> CircleSeries:
    """Exact Laurent composition ``h = P(psi)`` by Horner's scheme over circle
    series, cut to bandwidth ``K``."""
    modes = {1: m.cap, **{-j: a for j, a in enumerate(m.tail)}}
    psi = circle_from_modes(modes, max(1, len(m.tail) - 1))
    h = CircleSeries(poly[-1:])
    for c in poly[-2::-1]:
        h = h * psi + CircleSeries(np.array([c]))
    return truncate(h, K, "log-weight pullback")


def _fit_harmonic(m: ExteriorMap, weight: WeightDef, K: int, rho: float) -> CircleSeries:
    """Harmonic fit ``h`` of a black-box log-weight from the circles ``rho`` and ``1/rho``.

    On ``|zeta| = r`` mode ``k >= 1`` of ``h + conj(h)`` is
    ``h_k r^k + conj(h_-k) r^-k``; the two circles determine both
    coefficients, and mode 0 gives ``Re h_0``.  What is not harmonic is left
    for the caller's validation to measure.
    """
    n = OVERSAMPLE * (2 * K + 1)
    angles = np.exp(2j * np.pi * np.arange(n) / n)
    with np.errstate(invalid="ignore", divide="ignore"):
        samples = np.log(weight(m.psi(np.array([rho, 1.0 / rho])[:, None] * angles[None, :])))
    if np.any(~np.isfinite(samples)):
        raise PositivityError("weight evaluator returned non-positive or non-finite values")
    c_in, c_out = np.fft.fft(samples, axis=1)[:, :K + 1] / n
    k = np.arange(1, K + 1)
    rk, q = rho ** k, rho ** (2 * k)
    h = np.zeros(2 * K + 1, dtype=np.complex128)
    h[K] = 0.25 * (c_in[0].real + c_out[0].real)
    h[K + 1:] = rk * (c_out[1:] - q * c_in[1:]) / (1.0 - q * q)
    h[K - 1::-1] = np.conj(rk * (c_in[1:] - q * c_out[1:]) / (1.0 - q * q))
    return CircleSeries(h)


@dataclass(frozen=True, eq=False)
class SzegoData:
    """Boundary outer-function data for one (domain, weight) pair.

    ``v_exterior`` holds ``V o psi``, a circle series supported on modes
    ``k <= 0``, and ``v_infinity`` its mode 0, the (real) value at infinity.
    ``F = V o psi + h`` is the Laurent series whose real part is half the
    flattened log-weight, ``U = F + conj(F)``, which is 0 on the circle, and
    ``E = exp(F)``, so the flattened weight is ``Omega = E conj(E)`` and
    ``|E| = 1`` on the circle.  ``v_exterior``, ``F`` and ``E`` carry
    bandwidth ``2M``.
    """

    v_exterior: CircleSeries
    v_infinity: float
    F: CircleSeries
    E: CircleSeries
    inner_radius: float
    circle_residual: float

    @property
    def omega_flat(self) -> AnnulusSeries:
        """``Omega = E conj(E)`` as a bi-Laurent grid, ``c[m, n] = E_m conj(E_n)``.

        Derived on request, never used by the pipeline.  The grid is the full
        ``(4M+1)^2`` outer product, not cut to bidegree ``M``: callers that
        rebuild boundary moments from ``.coeffs`` (the eval-sweep reference in
        ``bench/workloads.py``) would otherwise disagree with the model.
        """
        e = self.E.coeffs
        return AnnulusSeries(np.outer(e, np.conj(e)), self.inner_radius)


def szego(weight: WeightSpec) -> SzegoData:
    """Build the outer function and ``E`` from the modes of the pullback ``h``.

    ``V o psi`` has no mode ``k >= 1``, ``V_0 = -Re h_0`` and
    ``V_-k = -(h_-k + conj(h_k))``, so ``2 Re V = -(h + conj(h))`` on the
    circle.  ``F = V o psi + h`` then has ``F_k = h_k`` for ``k >= 1``,
    ``F_0 = i Im h_0`` and ``F_-k = -conj(h_k)``: it is purely imaginary on
    the circle, so ``|E| = |exp(F)| = 1`` there (checked at the 256th roots of
    unity, where ``E`` is one inverse FFT of its modes folded mod 256).
    """
    h, K = weight.pullback.coeffs, weight.pullback.bandwidth
    if not np.isfinite(h).all():
        raise ConsistencyError("log-weight pullback has non-finite modes")
    h_bar = np.conj(h[:K:-1])   # conj(h_k), k = K..1, aligned with the modes -K..-1
    v = np.concatenate([-(h[:K] + h_bar), [-h[K].real], np.zeros(K)])
    F = CircleSeries(np.concatenate([-h_bar, [1j * h[K].imag], h[K + 1:]]))
    E = circle_exp(F)
    on_circle = np.fft.ifft(_fold(E.coeffs, 256), norm="forward")
    residual = float(np.max(np.abs(np.abs(on_circle) ** 2 - 1.0)))
    if not residual <= 1e-8:
        raise ConsistencyError(
            f"flattened weight deviates from 1 on the circle by {residual:.3e}")
    return SzegoData(v_exterior=CircleSeries(v), v_infinity=float(v[K].real), F=F, E=E,
                     inner_radius=weight.inner_radius, circle_residual=residual)


def parse_number(value, what: str) -> float:
    """A finite JSON number or command-line string as a float."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or not math.isfinite(x):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return x


def parse_integer(value, what: str) -> int:
    """An integral JSON number or command-line string as an int."""
    x = parse_number(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(x)


def parse_pair(value, what: str) -> complex:
    """A JSON ``[re, im]`` pair of finite numbers as a complex number."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be an [re, im] pair, got {value!r}")
    return complex(parse_number(value[0], what), parse_number(value[1], what))


def parse_list(value, what: str) -> list:
    """A JSON array, as given."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def parse_object(value, what: str) -> dict:
    """A JSON object, as given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def load_domain_config(cfg: dict):
    """Parse the JSON domain/weight config into ``(map, weight_def, rho, M, K)``.

    Schema::

        {"map": {"cap": float, "tail": [[re, im], ...]},
         "weight": {"kind": "const"|"exp-re-linear"|"exp-re-poly"|"custom-samples", ...},
         "rho": float, "M": int, "K": int}

    ``M`` (a positive integer, 24 by default) sets the circle bandwidth ``2M``
    of the model's Laurent series; ``K``, if given, must be that bandwidth
    ``2M``.  ``rho`` defaults to :func:`_default_inner_radius` of the map.
    """
    try:
        mp = parse_object(cfg["map"], "map")
        wcfg = parse_object(cfg.get("weight", {"kind": "const", "value": 1.0}), "weight")
        cap = parse_number(mp["cap"], "map.cap")
        tail = [parse_pair(a, "map.tail entry")
                for a in parse_list(mp.get("tail", []), "map.tail")]
        kind = wcfg.get("kind", "const")
        if kind == "const":
            wd = constant_weight(parse_number(wcfg.get("value", 1.0), "weight.value"))
        elif kind == "exp-re-linear":
            a = wcfg["alpha"]
            alpha = (parse_pair(a, "weight.alpha") if isinstance(a, list)
                     else parse_number(a, "weight.alpha"))
            wd = exp_re_linear_weight(alpha)
        elif kind == "exp-re-poly":
            wd = exp_re_poly_weight([parse_pair(a, "weight.coeffs entry")
                                     for a in wcfg["coeffs"]])
        elif kind == "custom-samples":
            pts = [parse_pair(a, "weight.points entry") for a in wcfg["points"]]
            vals = [parse_number(v, "weight.values entry") for v in wcfg["values"]]
            if len(vals) != len(pts):
                raise ConfigError(f"weight.values has {len(vals)} entries for "
                                  f"{len(pts)} weight.points")
            if any(v <= 0 for v in vals):
                raise ConfigError(f"weight.values entries must be positive, "
                                  f"got {min(vals)!r}")
            degree = parse_integer(wcfg.get("degree", 4), "weight.degree")
            if degree < 0:
                raise ConfigError(f"weight.degree must be non-negative, got {degree}")
            wd = sampled_weight(pts, vals, degree)
        else:
            raise ConfigError(f"unknown weight kind {kind!r}")
        rho = parse_number(cfg["rho"], "rho") if "rho" in cfg else None
        M = parse_integer(cfg.get("M", 24), "M")
        if M < 1:
            raise ConfigError(f"M must be a positive integer, got {M}")
        K = parse_integer(cfg.get("K", 2 * M), "K")
        if K != 2 * M:
            raise ConfigError(f"K must be the circle bandwidth 2M = {2 * M} (M = {M}), got {K}")
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    m = ExteriorMap(cap, tail)
    return m, wd, _default_inner_radius(m) if rho is None else rho, M, K


def _default_inner_radius(m: ExteriorMap) -> float:
    """The working annulus's inner radius where none is given: 0.7, or 0.05
    above the univalence margin where that is higher."""
    return max(0.7, m.univalence_margin + 0.05)
