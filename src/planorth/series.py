"""Laurent series on the unit circle, and bi-Laurent test functions on an annulus.

A :class:`CircleSeries` stores coefficients of ``z**k`` for ``|k| <= K``.
Read as a function of ``z`` it is a Laurent polynomial, holomorphic on the
punctured plane, so it carries every holomorphic quantity of the model
(``F``, ``E = exp(F)``, ``V``, ``X_j``) on the annulus as well as on the
circle.  A test function of the boundary-distribution expansion,
``sum c z^m conj(z)^n``, is its terms ``(m - n, m + n, c)``
(:mod:`planorth.distributional`).  An :class:`AnnulusSeries` holds such a
function as a dense grid of coefficients ``c[m, n]`` for ``|m|, |n| <= M``;
the pipeline never builds one: it and :func:`annulus_from_terms` remain for
the benchmark's reference values.  All values are immutable and every
operation is a pure function, so instances can be shared freely.

Truncations measure the absolute coefficient mass they discard and raise
:class:`~planorth.errors.TruncationOverflowError` when it exceeds
``TRUNC_TOL``: silently dropped mass would corrupt downstream convergence-rate
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, TruncationOverflowError

TRUNC_TOL = 1e-13        # largest discarded coefficient mass of a truncation
OVERSAMPLE = 9           # the harmonic fit samples OVERSAMPLE * (2K+1) points; circle_exp
                         # at most that many, rounded up to a power of two
CHOP_TOL = 1e-16         # circle_exp coefficients below CHOP_TOL * l1 are FFT rounding
EVAL_CHUNK = 4096        # points per block in AnnulusSeries.evaluate (benchmark only)


def _as_complex_array(a) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AnnulusSeries:
    """Finite sum ``sum_{m,n} c[m,n] z^m conj(z)^n`` near the unit circle:
    ``coeffs[M+m, M+n]``, shape ``(2M+1, 2M+1)``, is the coefficient of
    ``z**m * conj(z)**n``; ``inner_radius``, in ``(0, 1)``, is the inner radius
    ``rho`` of the annulus of validity.  Kept for the benchmark's eval-sweep;
    the pipeline keeps a test function as its :meth:`terms`."""

    coeffs: np.ndarray
    inner_radius: float

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

    def terms(self):
        """The nonzero terms as arrays ``(m - n, m + n, c)``, in grid order."""
        i, j = np.nonzero(self.coeffs)
        return i - j, i + j - 2 * self.bidegree, self.coeffs[i, j]


def annulus_from_terms(terms: dict, bidegree: int, inner_radius: float) -> AnnulusSeries:
    """Build a series from ``{(m, n): coefficient}`` (the benchmark's test
    functions; the pipeline keeps the terms)."""
    grid = np.zeros((2 * bidegree + 1, 2 * bidegree + 1), dtype=np.complex128)
    for (m, n), c in terms.items():
        if abs(m) > bidegree or abs(n) > bidegree:
            raise ValueError(f"term ({m},{n}) outside bidegree {bidegree}")
        grid[bidegree + m, bidegree + n] = c
    return AnnulusSeries(grid, inner_radius)


@dataclass(frozen=True, eq=False)
class CircleSeries:
    """Laurent polynomial ``sum_k c[k] z^k`` on the unit circle.

    ``coeffs[K + k]`` is the coefficient of ``z**k``, ``|k| <= K``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.coeffs)
        if arr.ndim != 1 or arr.shape[0] % 2 != 1:
            raise ValueError("coefficient vector must have odd length")
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

    def trimmed(self) -> "CircleSeries":
        """The same series at the least bandwidth that holds its nonzero modes."""
        K = self.bandwidth
        nz = np.flatnonzero(self.coeffs)
        S = int(np.max(np.abs(nz - K))) if nz.size else 0
        return CircleSeries(self.coeffs[K - S:K + S + 1])

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at points ``z`` by Horner's scheme in ``z`` (modes
        ``k >= 0``) and in ``1/z`` (modes ``k < 0``), over the nonzero modes."""
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        K = self.bandwidth
        nz = np.flatnonzero(self.coeffs)
        lo, hi = (nz[0] - K, nz[-1] - K) if nz.size else (0, 0)
        vals = np.zeros(zs.shape, dtype=np.complex128)
        if hi >= 0:
            vals += _horner(self.coeffs[K:K + hi + 1], zs)
        if lo < 0:
            w = 1.0 / zs
            vals += _horner(self.coeffs[K + lo:K][::-1], w) * w
        return vals if np.ndim(z) else vals[0]

    def __add__(self, other):
        if isinstance(other, CircleSeries):
            K = max(self.bandwidth, other.bandwidth)
            return CircleSeries(_pad_circle(self, K) + _pad_circle(other, K))
        return NotImplemented

    def __sub__(self, other):
        return self + (-other) if isinstance(other, CircleSeries) else NotImplemented

    def __neg__(self):
        return CircleSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CircleSeries):
            return CircleSeries(np.convolve(self.coeffs, other.coeffs))
        if np.isscalar(other):
            return CircleSeries(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__


def _horner(coeffs: np.ndarray, w: np.ndarray):
    """``sum_j coeffs[j] w^j`` by Horner's scheme (the bare ``coeffs[0]`` when
    there is one coefficient, so a constant costs no array)."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def circle_from_modes(modes: dict, bandwidth: int) -> CircleSeries:
    arr = np.zeros(2 * bandwidth + 1, dtype=np.complex128)
    for k, c in modes.items():
        if abs(k) > bandwidth:
            raise ValueError(f"mode {k} outside bandwidth {bandwidth}")
        arr[bandwidth + k] = c
    return CircleSeries(arr)


def _pad_circle(c: CircleSeries, K: int) -> np.ndarray:
    if c.bandwidth == K:
        return c.coeffs
    out = np.zeros(2 * K + 1, dtype=np.complex128)
    d = K - c.bandwidth
    out[d:d + c.coeffs.shape[0]] = c.coeffs
    return out


def truncate(c: CircleSeries, bandwidth: int, what: str) -> CircleSeries:
    """``c`` cut to modes ``|k| <= bandwidth`` (zero-padded if narrower).

    Raises :class:`TruncationOverflowError`, naming ``what``, when the
    absolute mass of the discarded modes exceeds ``TRUNC_TOL``."""
    K = c.bandwidth
    if K <= bandwidth:
        return CircleSeries(_pad_circle(c, bandwidth))
    d = K - bandwidth
    _refuse_discarded(float(np.sum(np.abs(c.coeffs[:d])) + np.sum(np.abs(c.coeffs[-d:]))),
                      bandwidth, what)
    return CircleSeries(c.coeffs[d:K + bandwidth + 1])


def _refuse_discarded(discarded: float, bandwidth: int, what: str) -> None:
    """Raise :class:`TruncationOverflowError`, naming ``what``, when the mass
    ``discarded`` beyond ``bandwidth`` exceeds ``TRUNC_TOL``."""
    if discarded > TRUNC_TOL:
        raise TruncationOverflowError(
            f"{what} has mass {discarded:.3e} beyond bandwidth {bandwidth}, above "
            f"tolerance {TRUNC_TOL:.1e}; increase M")


def circle_exp(f: CircleSeries) -> CircleSeries:
    """``exp(f)`` at the bandwidth ``K`` of ``f``.

    ``f`` is sampled at ``n`` points of the unit circle (an inverse FFT of its
    modes), exponentiated pointwise and transformed back, so every mode
    ``|k| < n/2`` of ``exp(f)`` is measured directly rather than bounded.
    ``n`` is the least power of two ``>= 2 (2K+1)`` whose outer modes
    ``|k| >= 3n/8`` lie below ``CHOP_TOL`` times the l1 norm; it doubles while
    they do not, up to the first power of two ``>= OVERSAMPLE (2K+1)``.
    Coefficients below ``CHOP_TOL`` times the l1 norm are the flat rounding
    floor of the FFT and are set to zero (a chop in the sense of Aurentz &
    Trefethen, ACM TOMS 2017); the rest is cut to ``K``, and a discarded mass
    (every mode up to ``n/2``) above ``TRUNC_TOL`` raises as in
    :func:`truncate`.  A sample of ``exp(f)`` beyond the float range raises
    :class:`NonFiniteError` before the transform back.
    """
    K = f.bandwidth
    n, cap = 1 << (4 * K + 1).bit_length(), 1 << (OVERSAMPLE * (2 * K + 1) - 1).bit_length()
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            samples = np.exp(np.fft.ifft(_fold(f.coeffs, n), norm="forward"))
        if not np.isfinite(samples).all():
            raise NonFiniteError(f"exp of a series at bandwidth {K} has samples beyond the "
                                 "float range")
        e = np.fft.fft(samples, norm="forward")
        modulus = np.abs(e)
        floor = CHOP_TOL * modulus.sum()
        outer = (3 * n + 7) // 8          # modes |k| >= 3n/8 sit at e[outer : n - outer + 1]
        if n >= cap or (modulus[outer:n - outer + 1] < floor).all():
            break
        n *= 2
    e[modulus < floor] = 0.0
    # e[K + 1 : n - K] holds the modes K < |k| <= n/2 that the cut to K discards
    _refuse_discarded(float(np.abs(e[K + 1:n - K]).sum()), K, "exp")
    return CircleSeries(np.concatenate([e[n - K:], e[:K + 1]]))


def _fold(c: np.ndarray, n: int) -> np.ndarray:
    """The centred coefficients ``c`` (modes ``|k| <= K``) folded mod ``n``:
    entry ``j`` sums the modes ``k = j (mod n)``, so the inverse FFT of the
    result holds the series at the ``n``-th roots of unity."""
    K = (c.size - 1) // 2
    q = -(-K // n) * n                    # least multiple of n at or above K
    padded = np.zeros(-(-(q + K + 1) // n) * n, dtype=np.complex128)
    padded[q - K:q + K + 1] = c           # padded[i] holds mode i - q
    return padded.reshape(-1, n).sum(axis=0)


def hardy_project(c: CircleSeries) -> CircleSeries:
    """Orthogonal projection onto boundary functions with modes ``k <= -1`` only.

    These are boundary values of functions holomorphic on the exterior disk
    and vanishing at infinity.
    """
    K = c.bandwidth
    out = c.coeffs.copy()
    out[K:] = 0.0
    return CircleSeries(out)

