"""Truncated bi-Laurent series on an annulus and Laurent series on the unit circle.

An :class:`AnnulusSeries` stores a dense grid of coefficients ``c[m, n]`` of
``z**m * conj(z)**n`` for ``|m| <= M``, ``|n| <= M`` and represents a
real-analytic function on the annulus ``rho < |z| < 1/rho``.  A
:class:`CircleSeries` stores coefficients of ``z**k`` on the unit circle for
``|k| <= K`` together with a mode-support tag.  All values are immutable and
every operation is a pure function, so instances can be shared freely.

Truncating operations report the absolute coefficient mass they discard and
raise :class:`~planorth.errors.TruncationOverflowError` when it exceeds
``TRUNC_TOL``: silently dropped mass would corrupt downstream convergence-rate
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, TruncationOverflowError

TRUNC_TOL = 1e-13        # largest discarded coefficient mass of a truncation
EXP_TERMS = 18           # Taylor terms of the series_exp core
EXP_NORM_LIMIT = 40.0    # largest l1 norm series_exp accepts
HERGLOTZ_REAL_TOL = 1e-11  # realness tolerance of the herglotz argument
EVAL_CHUNK = 4096        # points per block in AnnulusSeries.evaluate

# Mode-support tags for CircleSeries.
SUPPORT_GENERAL = "general"
SUPPORT_EXTERIOR = "exterior"                      # modes k <= 0
SUPPORT_EXTERIOR_VANISHING = "exterior-vanishing"  # modes k <= -1
SUPPORT_INTERIOR = "interior"                      # modes k >= 0

_SUPPORTS = (SUPPORT_GENERAL, SUPPORT_EXTERIOR, SUPPORT_EXTERIOR_VANISHING, SUPPORT_INTERIOR)


def _as_complex_array(a) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AnnulusSeries:
    """Finite sum ``sum_{m,n} c[m,n] z^m conj(z)^n`` near the unit circle.

    Parameters
    ----------
    coeffs : ndarray, shape (2M+1, 2M+1)
        ``coeffs[M+m, M+n]`` is the coefficient of ``z**m * conj(z)**n``.
    inner_radius : float
        Inner radius ``rho`` of the annulus of validity, in ``(0, 1)``.
    trunc_mass : float
        Absolute coefficient mass discarded while producing this series.
    """

    coeffs: np.ndarray
    inner_radius: float
    trunc_mass: float = 0.0

    def __post_init__(self):
        arr = _as_complex_array(self.coeffs)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 1:
            raise ValueError("coefficient grid must be square with odd side length")
        if not (0.0 < self.inner_radius < 1.0):
            raise ValueError("inner_radius must lie in (0, 1)")
        object.__setattr__(self, "coeffs", arr)

    @property
    def bidegree(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def coeff(self, m: int, n: int) -> complex:
        """Coefficient of ``z**m * conj(z)**n`` (zero outside the grid)."""
        M = self.bidegree
        if abs(m) > M or abs(n) > M:
            return 0.0 + 0.0j
        return complex(self.coeffs[M + m, M + n])

    def l1(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def is_real(self, tol: float = 1e-12) -> bool:
        """Whether the represented function is real-valued: c[n,m] == conj(c[m,n])."""
        dev = np.max(np.abs(self.coeffs.T - np.conj(self.coeffs)))
        return bool(dev <= tol * max(1.0, self.l1()))

    def conjugate(self) -> "AnnulusSeries":
        """Series of ``z -> conj(f(z))``."""
        return AnnulusSeries(np.conj(self.coeffs).T, self.inner_radius, self.trunc_mass)

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at points ``z`` (annulus points; vectorized).

        Points are taken ``EVAL_CHUNK`` at a time, so the power matrices
        never exceed ``EVAL_CHUNK x (2M+1)`` whatever the number of points."""
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
        exps = np.arange(-self.bidegree, self.bidegree + 1)
        vals = np.empty(zs.shape, dtype=np.complex128)
        for lo in range(0, zs.size, EVAL_CHUNK):
            zp = zs[lo:lo + EVAL_CHUNK, None] ** exps
            # conj(z)^n = conj(z^n)
            vals[lo:lo + EVAL_CHUNK] = np.sum((zp @ self.coeffs) * zp.conj(), axis=1)
        return vals.reshape(np.shape(z)) if np.ndim(z) else vals[0]

    def __add__(self, other):
        if isinstance(other, AnnulusSeries):
            a, b = _common_grid(self, other)
            return AnnulusSeries(a.coeffs + b.coeffs, self.inner_radius,
                                 self.trunc_mass + other.trunc_mass)
        return NotImplemented

    def __sub__(self, other):
        return self + (-other) if isinstance(other, AnnulusSeries) else NotImplemented

    def __neg__(self):
        return AnnulusSeries(-self.coeffs, self.inner_radius, self.trunc_mass)

    def __mul__(self, other):
        if isinstance(other, AnnulusSeries):
            return multiply(self, other)
        if np.isscalar(other):
            return AnnulusSeries(self.coeffs * other, self.inner_radius, self.trunc_mass)
        return NotImplemented

    __rmul__ = __mul__


def annulus_zeros(bidegree: int, inner_radius: float) -> AnnulusSeries:
    side = 2 * bidegree + 1
    return AnnulusSeries(np.zeros((side, side), dtype=np.complex128), inner_radius)


def annulus_constant(value: complex, bidegree: int, inner_radius: float) -> AnnulusSeries:
    grid = np.zeros((2 * bidegree + 1, 2 * bidegree + 1), dtype=np.complex128)
    grid[bidegree, bidegree] = value
    return AnnulusSeries(grid, inner_radius)


def annulus_from_terms(terms: dict, bidegree: int, inner_radius: float) -> AnnulusSeries:
    """Build a series from ``{(m, n): coefficient}``."""
    grid = np.zeros((2 * bidegree + 1, 2 * bidegree + 1), dtype=np.complex128)
    for (m, n), c in terms.items():
        if abs(m) > bidegree or abs(n) > bidegree:
            raise ValueError(f"term ({m},{n}) outside bidegree {bidegree}")
        grid[bidegree + m, bidegree + n] = c
    return AnnulusSeries(grid, inner_radius)


def _common_grid(a: AnnulusSeries, b: AnnulusSeries):
    if abs(a.inner_radius - b.inner_radius) > 1e-12:
        raise DomainError("annulus series live on different annuli")
    M = max(a.bidegree, b.bidegree)
    return _pad(a, M), _pad(b, M)


def _pad(a: AnnulusSeries, M: int) -> AnnulusSeries:
    if a.bidegree == M:
        return a
    if a.bidegree > M:
        raise ValueError("cannot pad to a smaller grid")
    d = M - a.bidegree
    grid = np.zeros((2 * M + 1, 2 * M + 1), dtype=np.complex128)
    grid[d:d + a.coeffs.shape[0], d:d + a.coeffs.shape[1]] = a.coeffs
    return AnnulusSeries(grid, a.inner_radius, a.trunc_mass)


def multiply(a: AnnulusSeries, b: AnnulusSeries, cap: int | None = None) -> AnnulusSeries:
    """Product of two annulus series.

    The coefficient grid is the 2-D convolution of the inputs, truncated to
    bidegree ``min(Ma + Mb, cap)``.  The sum of absolute discarded coefficients
    is recorded on the result; if it exceeds ``TRUNC_TOL`` a
    :class:`TruncationOverflowError` is raised.
    """
    if abs(a.inner_radius - b.inner_radius) > 1e-12:
        raise DomainError("annulus series live on different annuli")
    Ma, Mb = a.bidegree, b.bidegree
    Mfull = Ma + Mb
    size = 2 * Mfull + 1
    full = _conv2(a.coeffs, b.coeffs, size)
    if cap is None or cap >= Mfull:
        out, discarded = full, 0.0
    else:
        lo, hi = Mfull - cap, Mfull + cap + 1
        out = full[lo:hi, lo:hi]
        mask = np.ones_like(full, dtype=bool)
        mask[lo:hi, lo:hi] = False
        # entries below the roundoff floor of the convolution are not counted
        floor = 64.0 * np.finfo(float).eps * a.l1() * b.l1()
        outside = np.abs(full[mask])
        discarded = float(np.sum(outside[outside > floor]))
        if discarded > TRUNC_TOL:
            raise TruncationOverflowError(
                f"multiply discarded mass {discarded:.3e} above tolerance {TRUNC_TOL:.1e} "
                f"(cap {cap}); increase the bidegree cap")
    return AnnulusSeries(np.ascontiguousarray(out), a.inner_radius,
                         a.trunc_mass + b.trunc_mass + discarded)


def _conv2(A: np.ndarray, B: np.ndarray, size: int) -> np.ndarray:
    """Full 2-D convolution.  Sparse-shift accumulation (exact, preserves
    structural zeros) driven by the factor with fewer nonzeros; FFT fallback
    when both factors are dense."""
    nza = np.argwhere(A != 0)
    nzb = np.argwhere(B != 0)
    if min(len(nza), len(nzb)) > 6000:
        fa = np.fft.fft2(A, s=(size, size))
        fb = np.fft.fft2(B, s=(size, size))
        return np.fft.ifft2(fa * fb)
    if len(nzb) < len(nza):
        A, B, nza = B, A, nzb
    out = np.zeros((size, size), dtype=np.complex128)
    sb = B.shape[0]
    for i, j in nza:
        out[i:i + sb, j:j + sb] += A[i, j] * B
    return out


def series_exp(a: AnnulusSeries) -> AnnulusSeries:
    """Exponential of an annulus series on its own grid, by scaling and squaring.

    The argument is scaled by ``2**-s`` until its l1 coefficient norm is below
    1/2, an ``EXP_TERMS``-term Taylor core is summed by Horner's scheme, and
    the result is squared ``s`` times.  Raises :class:`ConvergenceError` when
    the l1 norm exceeds ``EXP_NORM_LIMIT`` (a weight that large should be
    handled with a bigger inner radius or a smaller amplitude).
    """
    M = a.bidegree
    norm = a.l1()
    if norm > EXP_NORM_LIMIT:
        raise ConvergenceError(
            f"series exp argument has l1 norm {norm:.2e} > {EXP_NORM_LIMIT}; "
            "increase the annulus inner radius or reduce the weight amplitude")
    s = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a * (0.5 ** s)
    acc = one = annulus_constant(1.0, M, b.inner_radius)
    for k in range(EXP_TERMS, 0, -1):
        acc = one + multiply(acc, b, cap=M) * (1.0 / k)
    for _ in range(s):
        acc = multiply(acc, acc, cap=M)
    return acc


def wirtinger_z(a: AnnulusSeries) -> AnnulusSeries:
    """Apply ``z d/dz``: multiplies ``c[m, n]`` by ``m``."""
    M = a.bidegree
    m = np.arange(-M, M + 1)[:, None]
    return AnnulusSeries(a.coeffs * m, a.inner_radius, a.trunc_mass)


def wirtinger_zbar(a: AnnulusSeries) -> AnnulusSeries:
    """Apply ``conj(z) d/dconj(z)``: multiplies ``c[m, n]`` by ``n``."""
    M = a.bidegree
    n = np.arange(-M, M + 1)[None, :]
    return AnnulusSeries(a.coeffs * n, a.inner_radius, a.trunc_mass)


def radial(a: AnnulusSeries) -> AnnulusSeries:
    """Apply ``r d/dr = z d/dz + conj(z) d/dconj(z)``: multiplies ``c[m, n]`` by ``m + n``."""
    M = a.bidegree
    m = np.arange(-M, M + 1)
    return AnnulusSeries(a.coeffs * (m[:, None] + m[None, :]), a.inner_radius, a.trunc_mass)


@dataclass(frozen=True, eq=False)
class CircleSeries:
    """Laurent polynomial ``sum_k c[k] z^k`` on the unit circle.

    ``coeffs[K + k]`` is the coefficient of ``z**k``, ``|k| <= K``.  The
    ``support`` tag declares which modes may be nonzero; construction checks
    the tag against the actual coefficient range.
    """

    coeffs: np.ndarray
    support: str = SUPPORT_GENERAL

    def __post_init__(self):
        arr = _as_complex_array(self.coeffs)
        if arr.ndim != 1 or arr.shape[0] % 2 != 1:
            raise ValueError("coefficient vector must have odd length")
        if self.support not in _SUPPORTS:
            raise ValueError(f"unknown support tag {self.support!r}")
        K = (arr.shape[0] - 1) // 2
        k = np.arange(-K, K + 1)
        if self.support == SUPPORT_EXTERIOR:
            bad = np.abs(arr[k > 0])
        elif self.support == SUPPORT_EXTERIOR_VANISHING:
            bad = np.abs(arr[k > -1])
        elif self.support == SUPPORT_INTERIOR:
            bad = np.abs(arr[k < 0])
        else:
            bad = np.zeros(0)
        if bad.size and np.max(bad) > 0.0:
            raise ValueError(f"nonzero coefficients outside declared support {self.support!r}")
        object.__setattr__(self, "coeffs", arr)

    @property
    def bandwidth(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def coeff(self, k: int) -> complex:
        K = self.bandwidth
        if abs(k) > K:
            return 0.0 + 0.0j
        return complex(self.coeffs[K + k])

    def l1(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def linf(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def is_real(self, tol: float = 1e-12) -> bool:
        """Real-valued on the circle: ``c[-k] == conj(c[k])``."""
        dev = np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs)))
        return bool(dev <= tol * max(1.0, self.l1()))

    def conjugate_on_circle(self) -> "CircleSeries":
        """Series of ``zeta -> conj(f(zeta))`` restricted to ``|zeta| = 1``."""
        return CircleSeries(np.conj(self.coeffs)[::-1], SUPPORT_GENERAL)

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at points ``z`` by Horner's scheme in ``z`` (modes
        ``k >= 0``) and in ``1/z`` (modes ``k < 0``), over the nonzero modes."""
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        K = self.bandwidth
        nz = np.flatnonzero(self.coeffs)
        lo, hi = (nz[0] - K, nz[-1] - K) if nz.size else (0, 0)
        vals = np.zeros(zs.shape, dtype=np.complex128)
        for k in range(hi, -1, -1):
            vals = vals * zs + self.coeffs[K + k]
        if lo < 0:
            w = 1.0 / zs
            neg = np.zeros(zs.shape, dtype=np.complex128)
            for k in range(lo, 0):
                neg = (neg + self.coeffs[K + k]) * w
            vals = vals + neg
        return vals if np.ndim(z) else vals[0]

    def __add__(self, other):
        if isinstance(other, CircleSeries):
            K = max(self.bandwidth, other.bandwidth)
            return CircleSeries(_pad_circle(self, K) + _pad_circle(other, K))
        return NotImplemented

    def __sub__(self, other):
        return self + (-other) if isinstance(other, CircleSeries) else NotImplemented

    def __neg__(self):
        return CircleSeries(-self.coeffs, self.support)

    def __mul__(self, other):
        if isinstance(other, CircleSeries):
            return CircleSeries(np.convolve(self.coeffs, other.coeffs))
        if np.isscalar(other):
            return CircleSeries(self.coeffs * other, self.support)
        return NotImplemented

    __rmul__ = __mul__


def circle_zeros(bandwidth: int) -> CircleSeries:
    return CircleSeries(np.zeros(2 * bandwidth + 1, dtype=np.complex128))


def circle_from_modes(modes: dict, bandwidth: int, support: str = SUPPORT_GENERAL) -> CircleSeries:
    arr = np.zeros(2 * bandwidth + 1, dtype=np.complex128)
    for k, c in modes.items():
        if abs(k) > bandwidth:
            raise ValueError(f"mode {k} outside bandwidth {bandwidth}")
        arr[bandwidth + k] = c
    return CircleSeries(arr, support)


def _pad_circle(c: CircleSeries, K: int) -> np.ndarray:
    if c.bandwidth == K:
        return c.coeffs
    out = np.zeros(2 * K + 1, dtype=np.complex128)
    d = K - c.bandwidth
    out[d:d + c.coeffs.shape[0]] = c.coeffs
    return out


def restrict_to_circle(a: AnnulusSeries) -> CircleSeries:
    """Restrict to ``|z| = 1``: mode ``k`` collects ``sum_{m-n=k} c[m, n]``,
    bandwidth ``K = 2M``."""
    M = a.bidegree
    K = 2 * M
    # coeffs[i, j] holds (m, n) = (i-M, j-M), which lands in mode m - n = i - j
    i = np.arange(2 * M + 1)
    idx, c = (K + i[:, None] - i[None, :]).ravel(), a.coeffs.ravel()
    out = np.bincount(idx, c.real, 2 * K + 1) + 1j * np.bincount(idx, c.imag, 2 * K + 1)
    return CircleSeries(out)


def radial_moments(a: AnnulusSeries, shift: float, mu_max: int) -> list:
    """Restrictions ``R (-(r d/dr)/2 - shift)^mu a`` for ``mu = 0..mu_max``
    (``r d/dr`` multiplies ``c[m, n]`` by ``m + n``)."""
    m = np.arange(-a.bidegree, a.bidegree + 1)
    f = -(m[:, None] + m[None, :]) / 2.0 - shift
    out, grid = [], a.coeffs
    for _ in range(mu_max + 1):
        out.append(restrict_to_circle(AnnulusSeries(grid, a.inner_radius)))
        grid = grid * f
    return out


def hardy_project(c: CircleSeries) -> CircleSeries:
    """Orthogonal projection onto boundary functions with modes ``k <= -1`` only.

    These are boundary values of functions holomorphic on the exterior disk
    and vanishing at infinity.
    """
    K = c.bandwidth
    out = c.coeffs.copy()
    out[K:] = 0.0
    return CircleSeries(out, SUPPORT_EXTERIOR_VANISHING)


def herglotz(u: CircleSeries) -> CircleSeries:
    """Exterior Herglotz transform of a real-valued circle function.

    Returns ``H[u](z) = u_hat(0) + 2 sum_{k>=1} u_hat(-k) z^{-k}``, the unique
    holomorphic function on the exterior disk, real at infinity, whose real
    part on the circle equals ``u`` (real to ``HERGLOTZ_REAL_TOL``).
    """
    if not u.is_real(HERGLOTZ_REAL_TOL):
        raise DomainError("herglotz transform requires a real-valued circle function")
    K = u.bandwidth
    out = np.zeros(2 * K + 1, dtype=np.complex128)
    out[K] = u.coeffs[K].real
    out[:K] = 2.0 * u.coeffs[:K]
    return CircleSeries(out, SUPPORT_EXTERIOR)


def lift_holomorphic(c: CircleSeries, bidegree: int, inner_radius: float) -> AnnulusSeries:
    """Lift circle modes ``z^k`` to the annulus grid as pure-z terms ``(k, 0)``."""
    K = c.bandwidth
    grid = np.zeros((2 * bidegree + 1, 2 * bidegree + 1), dtype=np.complex128)
    discarded = 0.0
    for k in range(-K, K + 1):
        v = c.coeffs[K + k]
        if v == 0.0:
            continue
        if abs(k) > bidegree:
            discarded += abs(v)
        else:
            grid[bidegree + k, bidegree] = v
    if discarded > TRUNC_TOL:
        raise TruncationOverflowError(
            f"lift discarded mass {discarded:.3e} above tolerance {TRUNC_TOL:.1e}")
    return AnnulusSeries(grid, inner_radius, discarded)


def conjugate_lift(c: CircleSeries, bidegree: int, inner_radius: float) -> AnnulusSeries:
    """Annulus series of ``z -> conj(f(z))`` for a holomorphic ``f``: modes ``(0, k)``."""
    return lift_holomorphic(c, bidegree, inner_radius).conjugate()
