"""Off-spectral reproducing-kernel asymptotics and exterior kernel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError, OffSpectralError
from .expansion import ExpansionModel, _map_valid, _positioned
from .geometry import ExteriorMap, map_forward_many, phi_prime

OFFSPECTRAL_MARGIN = 1e-6   # least separation |phi(w)| - 1 of a root point
BW_TAIL_TOL = 1e-14         # relative size of what bw_kernel_diag's tail sum leaves out
BW_TAIL_TERMS = 10 ** 6     # most terms bw_kernel_diag's tail sum may take


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
    zeta = _map_valid(model, N, z)
    vals = _offspectral_at(model, N, zeta, outer_rho(point, zeta))
    return vals if np.ndim(z) else complex(vals[0])


def _offspectral_at(model: ExpansionModel, N: int, zeta, outer) -> np.ndarray:
    """:func:`offspectral_leading` at mapped points ``zeta`` that pass
    :func:`~planorth.expansion.check_valid` at ``N``, with ``outer`` the
    degree-free :func:`outer_rho` there."""
    return _positioned(model, N, zeta, math.sqrt(N) * outer, None, "off-spectral kernel")


def offspectral_phase(model: ExpansionModel, point: OffSpectralPoint, N: int) -> float:
    """Leading phase ``-(N arg phi(w) + arg phi'(w) + Im V(w))`` of the kernel."""
    a = point.image
    v = model.szego.v_exterior.evaluate(a)
    return float(-(N * np.angle(a) + np.angle(phi_prime(model.map, a)) + np.imag(v)))


def bw_kernel_diag(rho: float, m: ExteriorMap, N: int, z):
    """Diagonal of the reproducing kernel for holomorphic functions of growth
    ``O(|z|^N)`` on the exterior of the level curve ``|phi| = rho``, with the
    ring ``rho < |phi| < 1`` as the inner-product region: a float at one
    point ``z``, an array at a 1-D array of points (one map call and one head
    sum for all of them; :func:`_bw_kernel_diag_at` takes mapped points).

    ``K_N(z, z) = |phi'(z)|^2 [ |phi(z)|^-2 / log(1/rho^2)
    + sum_{n <= N, n != -1} (n+1) |phi(z)|^{2n} / (1 - rho^{2n+2}) ]``.
    With ``r = |phi(z)|`` the tail ``n <= -2`` is the Lambert series
    ``r^-2 sum_{l>=0} x_l / (1 - x_l)^2``, ``x_l = (rho/r)^2 rho^{2l}``.  Term
    ``l`` is at most ``rho^{2l} / (1 - rho^2)^2`` times term 0 whatever ``r``
    is, so the first ``L`` terms, ``rho^{2L} <= BW_TAIL_TOL (1 - rho^2)^3``,
    leave out less than ``BW_TAIL_TOL`` of the sum.  A ``rho`` that needs more
    than ``BW_TAIL_TERMS`` of them raises :class:`DomainError`, as does a point
    that cannot be mapped or that has ``|phi(z)| <= rho``.
    """
    if not (0 < rho < 1):
        raise DomainError("need 0 < rho < 1")
    if N < 0:
        raise DomainError(f"degree {N} is negative")
    out, = _bw_kernel_diag_at(rho, m, [N], _map_points(m, np.atleast_1d(np.asarray(z, complex))))
    return out if np.ndim(z) else float(out[0])


def _map_points(m: ExteriorMap, pts: np.ndarray) -> np.ndarray:
    """``phi`` at the 1-D array ``pts``, or :class:`DomainError` naming the first
    point that cannot be mapped into the analytic collar."""
    zeta, ok = map_forward_many(m, pts)
    if not ok.all():
        raise DomainError(f"z = {complex(pts[np.argmin(ok)])} could not be mapped into "
                          "the analytic collar")
    return zeta


def _bw_kernel_diag_at(rho: float, m: ExteriorMap, degrees, zeta: np.ndarray) -> np.ndarray:
    """:func:`bw_kernel_diag` at the mapped points ``zeta`` (a 1-D array), one
    row for each of the ``degrees``, for ``0 < rho < 1`` and degrees ``>= 0``:
    the head sum once per degree, ``|phi'|^2`` and the tail, which no degree
    changes, once."""
    rho2 = rho * rho
    log_rho2 = 2.0 * math.log(rho)   # rho * rho underflows for rho below 1e-162
    L = math.ceil(math.log(BW_TAIL_TOL * (1.0 - rho2) ** 3) / log_rho2)
    if L > BW_TAIL_TERMS:
        raise DomainError(f"rho = {rho} is too close to 1: the kernel's tail sum "
                          f"needs {L} terms, more than {BW_TAIL_TERMS}")
    r = np.abs(zeta)
    if np.any(r <= rho):
        raise DomainError(f"|phi(z)| = {float(r.min()):.4f} must exceed rho = {rho}")
    dphi2 = np.abs(phi_prime(m, zeta)) ** 2
    lead = r ** (-2.0) / -log_rho2
    acc = np.empty((len(degrees), r.size))
    for i, N in enumerate(degrees):
        n = np.arange(N + 1)
        with np.errstate(over="ignore"):   # an overflowed power makes acc inf, refused below
            acc[i] = lead + np.sum((n + 1) * r[:, None] ** (2 * n) / (1.0 - rho ** (2 * n + 2)),
                                   axis=1)
        if not np.all(np.isfinite(acc[i])):
            raise NonFiniteError(f"K_N(z, z) overflows a float at N = {N}, "
                                 f"|phi(z)| = {float(r.max()):.4f}")
    x = (rho / r[:, None]) ** 2 * rho2 ** np.arange(L)
    return (acc + np.sum(x / (1.0 - x) ** 2, axis=1) / r ** 2) * dphi2
