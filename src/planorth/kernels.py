"""Off-spectral reproducing-kernel asymptotics and exterior kernel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError, OffSpectralError
from .expansion import ExpansionModel, _map_valid, _positioned
from .geometry import ExteriorMap, _map_forward, map_forward_many, phi_prime

OFFSPECTRAL_MARGIN = 1e-6   # least separation |phi(w)| - 1 of a root point
BW_TAIL_TOL = 1e-14         # relative size of what each of bw_kernel_diag's sums leaves out
BW_TAIL_TERMS = 10 ** 6     # most terms each of bw_kernel_diag's sums may take


@dataclass(frozen=True, eq=False)
class OffSpectralPoint:
    """Root point ``w`` outside the closed domain: ``|phi(w)| > 1 + OFFSPECTRAL_MARGIN``."""

    w: complex
    image: complex   # phi(w)


def off_spectral_point(m: ExteriorMap, w: complex) -> OffSpectralPoint:
    """The root point ``w``, or :class:`OffSpectralError` where ``phi(w)`` is
    not separated from the closed domain or cannot be computed (Newton's
    inversion fails for a point deep inside the domain)."""
    zeta, ok = map_forward_many(m, np.array([complex(w)]))
    if not ok[0]:
        raise OffSpectralError(f"w = {complex(w)} could not be mapped into the analytic "
                               "collar: it is not separated from the closed domain")
    a = complex(zeta[0])
    if abs(a) <= 1.0 + OFFSPECTRAL_MARGIN:
        raise OffSpectralError(
            f"|phi(w)| = {abs(a):.6f} is not separated from the closed domain")
    return OffSpectralPoint(w=complex(w), image=a)


def outer_rho(point: OffSpectralPoint, zeta):
    """Outer factor of the normalized kernel rooted at ``w``, at mapped points
    ``zeta = phi(z)``:
    ``sqrt(1 - |a|^-2) zeta / (zeta - 1/conj(a))`` with ``a = phi(w)``, which
    is ``sqrt(|a|^2 - 1) / |a|`` times ``conj(a) zeta / (conj(a) zeta - 1)``
    without the products ``|a|^2`` and ``conj(a) zeta`` that overflow for a far
    pair.

    On the boundary its modulus squared is ``(|a|^2 - 1)/|zeta - a|^2``; it
    is zero-free and nonvanishing at infinity (hence outer on the exterior),
    and at ``zeta = a`` takes the positive value ``|a| (|a|^2 - 1)^(-1/2)``.
    """
    a = point.image
    return math.sqrt(1.0 - abs(a) ** -2) * zeta / (zeta - 1.0 / np.conj(a))


def offspectral_leading(model: ExpansionModel, point: OffSpectralPoint, N: int, z):
    """Leading-order normalized kernel rooted off-spectrally, up to a
    unimodular phase: ``N^(1/2) rho_w(z) phi'(z) phi(z)^N e^V(z)``.  Raises
    :class:`OutOfValidityError` for a degree below ``N_MIN`` or a point that
    cannot be mapped inside the validity region, as the other evaluators do,
    and :class:`NonFiniteError` where a value leaves the float range."""
    zeta, mapped = _map_valid(model, N, z)
    vals = _offspectral_at(model, N, zeta, outer_rho(point, zeta), mapped)
    return vals if np.ndim(z) else complex(vals[0])


def _offspectral_at(model: ExpansionModel, N: int, zeta, outer, mapped=None) -> np.ndarray:
    """:func:`offspectral_leading` at mapped points ``zeta`` that pass
    :func:`~planorth.expansion.check_valid` at ``N``, with ``outer`` the
    degree-free :func:`outer_rho` there."""
    return _positioned(model, N, zeta, math.sqrt(N) * outer, None, "off-spectral kernel", mapped)


def offspectral_phase(model: ExpansionModel, point: OffSpectralPoint, N: int) -> float:
    """Leading phase ``-(N arg phi(w) + arg phi'(w) + Im V(w))`` of the kernel."""
    a = point.image
    v = model.szego.v_exterior.evaluate(a)
    return float(-(N * np.angle(a) + np.angle(phi_prime(model.map, a)) + np.imag(v)))


def bw_kernel_diag(rho: float, m: ExteriorMap, N: int, z):
    """Diagonal of the reproducing kernel for holomorphic functions of growth
    ``O(|z|^N)`` on the exterior of the level curve ``|phi| = rho``, with the
    ring ``rho < |phi| < 1`` as the inner-product region: a float at one
    point ``z``, an array of the shape of ``z`` at an array of points (one map
    call of their ravel and one head sum for all of them).

    ``K_N(z, z) = |phi'(z)|^2 [ |phi(z)|^-2 / log(1/rho^2)
    + sum_{n <= N, n != -1} (n+1) |phi(z)|^{2n} / (1 - rho^{2n+2}) ]``.
    With ``r = |phi(z)|`` and ``1/(1 - rho^{2n+2}) = sum_l rho^{2l(n+1)}``
    both parts are Lambert series in ``rho^{2l}``: the tail ``n <= -2`` is
    ``r^-2 sum_{l>=0} x_l / (1 - x_l)^2``, ``x_l = (rho/r)^2 rho^{2l}``, and
    the head ``0 <= n <= N`` is ``sum_{l>=0} rho^{2l} S_{N+1}(r rho^l)``, with
    ``S_u(s) = sum_{m<u} (m+1) s^{2m}`` in closed form (:func:`_ramp_sum`).
    Tail term ``l`` is at most ``rho^{2l} / (1 - rho^2)^2`` times term 0
    whatever ``r`` is, and head term ``l`` at most ``rho^{2l}`` times term 0
    (``S_u`` increases in ``s``), so the first ``L`` terms of each,
    ``rho^{2L} <= BW_TAIL_TOL (1 - rho^2)^3``, leave out less than
    ``BW_TAIL_TOL`` of its sum, whatever the degree.  A ``rho`` that needs
    more than ``BW_TAIL_TERMS`` of them raises :class:`DomainError`, as does a
    point that cannot be mapped or that has ``|phi(z)| <= rho``.
    """
    if not (0 < rho < 1):
        raise DomainError("need 0 < rho < 1")
    if N < 0:
        raise DomainError(f"degree {N} is negative")
    z = np.asarray(z, complex)
    out, = _bw_kernel_diag_at(rho, [N], *_map_points(m, z.ravel()))
    return out.reshape(z.shape) if z.ndim else float(out[0])


def _map_points(m: ExteriorMap, pts: np.ndarray):
    """``(|phi|, psi' o phi)`` at the 1-D ``pts``, or :class:`DomainError` naming one not mapped."""
    _, ok, r, prime = _map_forward(m, pts)
    if not ok.all():
        raise DomainError(f"z = {complex(pts[np.argmin(ok)])} could not be mapped into "
                          "the analytic collar")
    return r, prime


def _bw_kernel_diag_at(rho: float, degrees, r: np.ndarray, prime: np.ndarray) -> np.ndarray:
    """:func:`bw_kernel_diag` at the points with ``|phi| = r`` and ``psi' o phi
    = prime`` (what :func:`_map_points` gives), one row for each of the
    ``degrees >= 0``, ``0 < rho < 1``: ``|phi'|^2``, the lead term and the
    tail, which no degree changes, once, and each degree's head as the ``L``
    terms ``rho^(2l) S_(N+1)(r rho^l)`` of its Lambert series."""
    rho2 = rho * rho
    log_rho2 = 2.0 * math.log(rho)   # rho * rho underflows for rho below 1e-162
    L = math.ceil(math.log(BW_TAIL_TOL * (1.0 - rho2) ** 3) / log_rho2)
    if L > BW_TAIL_TERMS:
        raise DomainError(f"rho = {rho} is too close to 1: the kernel's tail sum "
                          f"needs {L} terms, more than {BW_TAIL_TERMS}")
    if (r <= rho).any():
        raise DomainError(f"|phi(z)| = {float(r.min()):.4f} must exceed rho = {rho}")
    dphi2 = np.abs(1.0 / prime) ** 2
    lead = r ** (-2.0) / -log_rho2
    ell = np.arange(L)
    q = rho2 ** ell
    s = r[:, None] * rho ** ell
    acc = np.empty((len(degrees), r.size))
    # overflow makes acc inf or nan; _ramp_sum's closed form divides by zero at r rho^l = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, N in enumerate(degrees):
            acc[i] = lead + (q * _ramp_sum(N + 1, s)).sum(axis=1)
            if not np.isfinite(acc[i]).all():
                raise NonFiniteError(f"K_N(z, z) overflows a float at N = {N}, "
                                     f"|phi(z)| = {float(r.max()):.4f}")
    x = (rho / r[:, None]) ** 2 * q
    return (acc + (x / (1.0 - x) ** 2).sum(axis=1) / r ** 2) * dphi2


def _ramp_sum(u: int, r: np.ndarray) -> np.ndarray:
    """``sum_{m<u} (m + 1) x^m``, ``x = r^2 = e^lam``, for ``u >= 1``: ``(u x^u -
    G0)/(x - 1)`` with ``G0 = sum x^m = (x^u - 1)/(x - 1)``, in the form that
    keeps it accurate for its ``t = u lam``:

    - ``|t| >= 1``: the closed form, with ``x^u`` a power and ``x - 1 = (r -
      1)(r + 1)``, whose two terms cancel by at most a factor ``e``;
    - ``|t| < 1``: :func:`_ramp_near`, in Python floats.

    The closed form is formed at every point (at ``r = 1`` it divides by
    zero, which the caller ignores) and replaced where ``|t| < 1``, point by
    point: a point of :func:`bw_kernel_diag` has at most ``1 + 1 / (u
    log(1/rho))`` Lambert terms ``r rho^l`` this near 1."""
    e, y = (r - 1.0) * (r + 1.0), r ** (2 * u)
    g0 = (y - 1.0) / e
    out = u * (y / e) - g0 / e
    lam = 2.0 * np.log(r)
    for i in np.flatnonzero(np.abs(u * lam) < 1.0).tolist():
        out.flat[i] = _ramp_near(u, lam.item(i))
    return out


def _ramp_near(u: int, lam: float) -> float:
    """:func:`_ramp_sum` at one ``x = e^lam`` with ``|t| = |u lam| < 1``:

    - ``|t| < 1e-5``: the Taylor series in ``lam`` to second order, with the
      power sums ``S_k = sum m^k`` (what it leaves out is ``t^3/24``);
    - otherwise ``u E_u/E + (u h(lam) - h(t))/E^2``, with ``E = expm1(lam)``,
      ``E_u = expm1(t)`` and ``h(s) = e^s - 1 - s``, which takes out the
      cancellation of ``u E - E_u``.  ``h`` is its Taylor series ``sum_{k>=2}
      s^k / k!`` to ``k = 21`` (what it leaves out is below ``1e-19`` of the
      sum), nested as ``s^2/2 (1 + s/3 (1 + s/4 (... (1 + s/21))))``."""
    t = u * lam
    if abs(t) < 1e-5:
        s1, s2 = u * (u - 1) / 2, (u - 1) * u * (2 * u - 1) / 6
        return u + s1 + lam * (s1 + s2 + lam * (s2 + s1 * s1) / 2)
    a = b = 1.0
    for k in range(21, 2, -1):
        a = 1.0 + lam / k * a
        b = 1.0 + t / k * b
    h_lam, h_t = lam * lam / 2.0 * a, t * t / 2.0 * b
    e = math.expm1(lam)
    return u * (math.expm1(t) / e) + (u * h_lam - h_t) / (e * e)
