"""Off-spectral reproducing-kernel asymptotics and exterior kernel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OffSpectralError
from .expansion import ExpansionModel, positioning_factor
from .geometry import ExteriorMap, map_forward


@dataclass(frozen=True, eq=False)
class OffSpectralPoint:
    """Root point ``w`` outside the closed domain with ``|phi(w)| > 1 + margin``."""

    w: complex
    image: complex   # phi(w)
    margin: float


def off_spectral_point(m: ExteriorMap, w: complex, margin: float = 1e-6) -> OffSpectralPoint:
    a = map_forward(m, complex(w))
    if abs(a) <= 1.0 + margin:
        raise OffSpectralError(
            f"|phi(w)| = {abs(a):.6f} is not separated from the closed domain")
    return OffSpectralPoint(w=complex(w), image=complex(a), margin=margin)


def outer_rho(m: ExteriorMap, point: OffSpectralPoint, z):
    """Outer factor of the normalized kernel rooted at ``w``:
    ``sqrt(|a|^2 - 1) * conj(a) phi(z) / (|a| (conj(a) phi(z) - 1))`` with
    ``a = phi(w)``.

    On the boundary its modulus squared is ``(|a|^2 - 1)/|phi(z) - a|^2``; it
    is zero-free and nonvanishing at infinity (hence outer on the exterior),
    and at ``z = w`` takes the positive value ``|a| (|a|^2 - 1)^(-1/2)``.
    """
    vals = _outer_rho_at(point, np.asarray(map_forward(m, z), dtype=np.complex128))
    return vals if np.ndim(z) else complex(vals)


def _outer_rho_at(point: OffSpectralPoint, zeta: np.ndarray) -> np.ndarray:
    """:func:`outer_rho` at mapped points ``zeta = phi(z)``."""
    a = point.image
    return (math.sqrt(abs(a) ** 2 - 1.0) * np.conj(a) * zeta
            / (abs(a) * (np.conj(a) * zeta - 1.0)))


def offspectral_leading(model: ExpansionModel, point: OffSpectralPoint, N: int, z):
    """Leading-order normalized kernel rooted off-spectrally, up to a
    unimodular phase: ``N^(1/2) rho_w(z) phi'(z) phi(z)^N e^V(z)``."""
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    zeta = np.asarray(map_forward(model.map, zs), dtype=np.complex128)
    vals = (math.sqrt(N) * _outer_rho_at(point, zeta)
            * positioning_factor(model, N, zeta))
    return vals if np.ndim(z) else complex(vals[0])


def offspectral_phase(model: ExpansionModel, point: OffSpectralPoint, N: int) -> float:
    """Leading phase ``-(N arg phi(w) + arg phi'(w) + Im V(w))`` of the kernel."""
    a = point.image
    dphi = 1.0 / model.map.psi_prime(a)
    v = model.szego.v_exterior.evaluate(a)
    return float(-(N * np.angle(a) + np.angle(dphi) + np.imag(v)))


def bw_kernel_diag(rho: float, m: ExteriorMap, N: int, z, tol: float = 1e-14) -> float:
    """Diagonal of the reproducing kernel for holomorphic functions of growth
    ``O(|z|^N)`` on the exterior of the level curve ``|phi| = rho``, with the
    ring ``rho < |phi| < 1`` as the inner-product region.

    ``K_N(z, z) = |phi'(z)|^2 [ |phi(z)|^-2 / log(1/rho^2)
    + sum_{n <= N, n != -1} (n+1) |phi(z)|^{2n} / (1 - rho^{2n+2}) ]``;
    the tail over ``n -> -inf`` is summed until terms drop below ``tol``
    relative to the accumulated value.
    """
    if not (0 < rho < 1):
        raise DomainError("need 0 < rho < 1")
    zeta = map_forward(m, complex(z))
    r = abs(zeta)
    if r <= rho:
        raise DomainError(f"|phi(z)| = {r:.4f} must exceed rho = {rho}")
    dphi2 = abs(1.0 / m.psi_prime(zeta)) ** 2
    acc = r ** (-2.0) / math.log(1.0 / rho ** 2)
    for n in range(0, N + 1):
        acc += (n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2))
    n = -2
    while True:
        term = (n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2))
        acc += term
        if abs(term) < tol * max(1.0, abs(acc)):
            break
        n -= 1
        if n < -100000:
            raise DomainError("tail summation did not converge; |phi(z)| too close to rho")
    return float(acc * dphi2)
