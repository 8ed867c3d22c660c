"""Off-spectral reproducing-kernel asymptotics and exterior kernel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError, OffSpectralError
from .expansion import ExpansionModel, _require_finite, positioning_factor
from .geometry import ExteriorMap, map_forward, phi_prime

OFFSPECTRAL_MARGIN = 1e-6   # least separation |phi(w)| - 1 of a root point
BW_TAIL_TOL = 1e-14         # relative size of what bw_kernel_diag's tail sum leaves out
BW_TAIL_TERMS = 10 ** 6     # most terms bw_kernel_diag's tail sum may take


@dataclass(frozen=True, eq=False)
class OffSpectralPoint:
    """Root point ``w`` outside the closed domain: ``|phi(w)| > 1 + OFFSPECTRAL_MARGIN``."""

    w: complex
    image: complex   # phi(w)


def off_spectral_point(m: ExteriorMap, w: complex) -> OffSpectralPoint:
    a = map_forward(m, complex(w))
    if abs(a) <= 1.0 + OFFSPECTRAL_MARGIN:
        raise OffSpectralError(
            f"|phi(w)| = {abs(a):.6f} is not separated from the closed domain")
    return OffSpectralPoint(w=complex(w), image=complex(a))


def outer_rho(point: OffSpectralPoint, zeta):
    """Outer factor of the normalized kernel rooted at ``w``, at mapped points
    ``zeta = phi(z)``:
    ``sqrt(1 - |a|^-2) conj(a) zeta / (conj(a) zeta - 1)`` with ``a = phi(w)``
    (``sqrt(|a|^2 - 1) / |a|`` without the ``|a|^2`` that overflows for large ``a``).

    On the boundary its modulus squared is ``(|a|^2 - 1)/|zeta - a|^2``; it
    is zero-free and nonvanishing at infinity (hence outer on the exterior),
    and at ``zeta = a`` takes the positive value ``|a| (|a|^2 - 1)^(-1/2)``.
    """
    a = point.image
    return math.sqrt(1.0 - abs(a) ** -2) * np.conj(a) * zeta / (np.conj(a) * zeta - 1.0)


def offspectral_leading(model: ExpansionModel, point: OffSpectralPoint, N: int, z):
    """Leading-order normalized kernel rooted off-spectrally, up to a
    unimodular phase: ``N^(1/2) rho_w(z) phi'(z) phi(z)^N e^V(z)``.  Raises
    :class:`NonFiniteError` where a value leaves the float range."""
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    zeta = np.asarray(map_forward(model.map, zs), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = math.sqrt(N) * outer_rho(point, zeta) * positioning_factor(model, N, zeta)
    _require_finite(vals, "off-spectral kernel", N, zeta)
    return vals if np.ndim(z) else complex(vals[0])


def offspectral_phase(model: ExpansionModel, point: OffSpectralPoint, N: int) -> float:
    """Leading phase ``-(N arg phi(w) + arg phi'(w) + Im V(w))`` of the kernel."""
    a = point.image
    v = model.szego.v_exterior.evaluate(a)
    return float(-(N * np.angle(a) + np.angle(phi_prime(model.map, a)) + np.imag(v)))


def bw_kernel_diag(rho: float, m: ExteriorMap, N: int, z) -> float:
    """Diagonal of the reproducing kernel for holomorphic functions of growth
    ``O(|z|^N)`` on the exterior of the level curve ``|phi| = rho``, with the
    ring ``rho < |phi| < 1`` as the inner-product region.

    ``K_N(z, z) = |phi'(z)|^2 [ |phi(z)|^-2 / log(1/rho^2)
    + sum_{n <= N, n != -1} (n+1) |phi(z)|^{2n} / (1 - rho^{2n+2}) ]``.
    With ``r = |phi(z)|`` the tail ``n <= -2`` is the Lambert series
    ``r^-2 sum_{l>=0} x_l / (1 - x_l)^2``, ``x_l = (rho/r)^2 rho^{2l}``.  Term
    ``l`` is at most ``rho^{2l} / (1 - rho^2)^2`` times term 0 whatever ``r``
    is, so the first ``L`` terms, ``rho^{2L} <= BW_TAIL_TOL (1 - rho^2)^3``,
    leave out less than ``BW_TAIL_TOL`` of the sum.  A ``rho`` that needs more
    than ``BW_TAIL_TERMS`` of them raises :class:`DomainError`.
    """
    if not (0 < rho < 1):
        raise DomainError("need 0 < rho < 1")
    rho2 = rho * rho
    log_rho2 = 2.0 * math.log(rho)   # rho * rho underflows for rho below 1e-162
    L = math.ceil(math.log(BW_TAIL_TOL * (1.0 - rho2) ** 3) / log_rho2)
    if L > BW_TAIL_TERMS:
        raise DomainError(f"rho = {rho} is too close to 1: the kernel's tail sum "
                          f"needs {L} terms, more than {BW_TAIL_TERMS}")
    zeta = map_forward(m, complex(z))
    r = abs(zeta)
    if r <= rho:
        raise DomainError(f"|phi(z)| = {r:.4f} must exceed rho = {rho}")
    dphi2 = abs(phi_prime(m, zeta)) ** 2
    n = np.arange(N + 1)
    acc = r ** (-2.0) / -log_rho2
    with np.errstate(over="ignore"):   # an overflowed power makes acc inf, refused below
        acc += float(np.sum((n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2))))
    if not math.isfinite(acc):
        raise NonFiniteError(f"K_N(z, z) overflows a float at N = {N}, |phi(z)| = {r:.4f}")
    x = (rho / r) ** 2 * rho2 ** np.arange(L)
    acc += float(np.sum(x / (1.0 - x) ** 2)) / r ** 2
    return float(acc * dphi2)
