"""Off-spectral reproducing-kernel asymptotics and exterior kernel diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError, OffSpectralError
from .expansion import ExpansionModel, _map_valid, _positioned
from .geometry import ExteriorMap, _map_forward, map_forward_many, phi_prime

OFFSPECTRAL_MARGIN = 1e-6   # least separation |phi(w)| - 1 of a root point
BW_TAIL_TOL = 1e-14         # relative size of what bw_kernel_diag's tail sum leaves out
BW_TAIL_TERMS = 10 ** 6     # most terms bw_kernel_diag's tail sum may take
BW_HEAD_PAST = 256          # terms past n0 that bw_kernel_diag's head sums directly


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
    point ``z``, an array at a 1-D array of points (one map call and one head
    sum for all of them).

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
    out, = _bw_kernel_diag_at(rho, [N], *_map_points(m, np.atleast_1d(np.asarray(z, complex))))
    return out if np.ndim(z) else float(out[0])


def _map_points(m: ExteriorMap, pts: np.ndarray):
    """``(|phi|, psi' o phi)`` at the 1-D ``pts``, or :class:`DomainError` naming one not mapped."""
    _, ok, r, prime = _map_forward(m, pts)
    if not ok.all():
        raise DomainError(f"z = {complex(pts[np.argmin(ok)])} could not be mapped into "
                          "the analytic collar")
    return r, prime


def _bw_kernel_diag_at(rho: float, degrees, r: np.ndarray, prime: np.ndarray) -> np.ndarray:
    """:func:`bw_kernel_diag` at the points :func:`_map_points` gives ``(r,
    prime)``, one row for each of the ``degrees >= 0``, ``0 < rho < 1``:
    ``|phi'|^2``, the tail and the head's first terms, which no degree changes,
    once.  From ``n0``, the first ``n`` with ``rho^(2n+2) <= 2^-54``, ``1 -
    rho^(2n+2)`` rounds to 1 and the head's terms are ``(n+1) r^(2n)``: a degree
    below ``n0 + BW_HEAD_PAST`` sums them directly (cheaper than the closed
    form's numpy calls), a higher one by :func:`_ramp_sum`."""
    rho2 = rho * rho
    log_rho2 = 2.0 * math.log(rho)   # rho * rho underflows for rho below 1e-162
    L = math.ceil(math.log(BW_TAIL_TOL * (1.0 - rho2) ** 3) / log_rho2)
    if L > BW_TAIL_TERMS:
        raise DomainError(f"rho = {rho} is too close to 1: the kernel's tail sum "
                          f"needs {L} terms, more than {BW_TAIL_TERMS}")
    if np.any(r <= rho):
        raise DomainError(f"|phi(z)| = {float(r.min()):.4f} must exceed rho = {rho}")
    dphi2 = np.abs(1.0 / prime) ** 2
    lead = r ** (-2.0) / -log_rho2
    n0 = max(0, math.ceil(54.0 * math.log(2.0) / -log_rho2) - 1)
    ends = [N if N < n0 + BW_HEAD_PAST else n0 - 1 for N in degrees]   # each last direct term
    n = np.arange(max(ends) + 1)
    acc = np.empty((len(degrees), r.size))
    with np.errstate(over="ignore", invalid="ignore"):   # overflow makes acc inf or nan
        head = np.cumsum((n + 1) * r[:, None] ** (2 * n) / (1.0 - rho ** (2 * n + 2)), axis=1)
        for i, (N, end) in enumerate(zip(degrees, ends)):
            acc[i] = lead + (head[:, end] if end >= 0 else 0.0)
            if end < N:
                acc[i] += r ** (2 * n0) * _ramp_sum(n0 + 1, N - n0 + 1, r)
            if not np.all(np.isfinite(acc[i])):
                raise NonFiniteError(f"K_N(z, z) overflows a float at N = {N}, "
                                     f"|phi(z)| = {float(r.max()):.4f}")
    x = (rho / r[:, None]) ** 2 * rho2 ** np.arange(L)
    return (acc + np.sum(x / (1.0 - x) ** 2, axis=1) / r ** 2) * dphi2


def _ramp_sum(a: int, u: int, r: np.ndarray) -> np.ndarray:
    """``sum_{m<u} (m + a) x^m``, ``x = r^2 = e^lam``, for ``u >= 1``: ``a G0 + G1``
    with ``G0 = sum x^m = (x^u - 1)/(x - 1)`` and ``G1 = sum m x^m = (u x^u - x
    G0)/(x - 1)``, in the form that keeps each accurate for its ``t = u lam``:

    - ``|t| < 1e-5``: the Taylor series in ``lam`` to second order, with the
      power sums ``S_k = sum m^k`` (what it leaves out is ``t^3/24``);
    - ``|t| < 1``: ``G1 = (u h(lam) - h(t))/E^2 + (u - 1) E_u/E``, with ``E =
      expm1(lam)``, ``E_u = expm1(t)`` and ``h(t) = e^t - 1 - t`` from its
      series, which takes out the cancellation of ``u E - E_u``;
    - otherwise the closed forms, with ``x^u`` a power and ``x - 1 = (r - 1)(r +
      1)``, which cancel by at most a factor ``e``."""
    lam = 2.0 * np.log(r)
    t = u * lam
    kind = np.digitize(np.abs(t), (1e-5, 1.0))   # the form of each point, as listed
    forms = (_ramp_series, _ramp_expm1, _ramp_closed)
    kinds = set(kind.tolist())
    if len(kinds) == 1:   # every point in one form: no masked copies
        return forms[kinds.pop()](a, u, r, lam, t)
    out = np.empty_like(r)
    for k in kinds:
        at = kind == k
        out[at] = forms[k](a, u, r[at], lam[at], t[at])
    return out


def _ramp_series(a, u, r, lam, t):
    s1, s2 = u * (u - 1) / 2, (u - 1) * u * (2 * u - 1) / 6
    return a * (u + lam * (s1 + lam * s2 / 2)) + s1 + lam * (s2 + lam * s1 * s1 / 2)


def _ramp_expm1(a, u, r, lam, t):
    e = np.expm1(lam)
    return (a + u - 1) * (np.expm1(t) / e) + (u * _expm1_minus(lam) - _expm1_minus(t)) / e ** 2


def _ramp_closed(a, u, r, lam, t):
    e, y = (r - 1.0) * (r + 1.0), r ** (2 * u)
    g0 = (y - 1.0) / e
    return a * g0 + u * (y / e) - ((e + 1.0) / e) * g0


def _expm1_minus(t: np.ndarray) -> np.ndarray:
    """``e^t - 1 - t`` for ``|t| < 1``, from its Taylor series ``sum_{k>=2}
    t^k / k!`` by Horner's scheme (20 terms: what it leaves out is below
    ``1e-19`` of the sum)."""
    acc = np.zeros_like(t)
    for k in range(21, 1, -1):
        acc = (acc + 1.0) * t / k
    return acc * t
