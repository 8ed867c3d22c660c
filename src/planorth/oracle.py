"""Ground truth by brute force: orthonormal polynomials, kernels, discrepancies.

The oracle orthonormalizes ``1, z, z^2, ...`` in the area inner product
``<f, g> = int_D f conj(g) omega dA / pi`` of a weight ``omega = |e^P|^2``
with a polynomial ``P``, the form of every configured weight.  For
polynomials ``f, g`` Stokes' theorem moves that integral to the boundary:
with ``a = f e^P`` and a primitive ``B' = g e^P``, ``d(a conj B)/d(zbar) =
a conj(g e^P)``, so on ``z = psi(zeta)``, ``zeta = e^{i theta}``::

    <f, g> = mean_theta [ a(psi) conj(B(psi)) psi'(zeta) zeta ].

:func:`boundary_onps` runs Arnoldi on ``L`` equispaced samples of
``|zeta| = 1``: each basis vector keeps its samples ``P_n o psi`` and the
samples of its primitive ``B_n o psi``, and both are updated by the same
Gram-Schmidt coefficients.  ``B_v o psi`` is the termwise primitive of the
Laurent series ``(v e^P o psi) psi'``: mode ``k`` of ``(v e^P o psi) psi' zeta``
divided by ``k``, one FFT pair per degree.  The same FFT checks the samples:
the integrand's modes decay fast, so on samples that resolve it the outer
modes ``|k| >= 3L/8`` sit at the rounding floor of the largest (the test by
which Aurentz and Trefethen chop a Chebyshev series).  Their share is the
degree's ``tail``; the first degree whose tail exceeds ``TAIL_TOL`` stops the
run as unresolved, and only then are the samples doubled.  A degree takes
one pass of classical Gram-Schmidt, and a second only where the first
cancels more than a factor ``1/sqrt(2)`` of its norm (the test of Daniel,
Gragg, Kaufman and Stewart).  No 2-D rule is built and no point is mapped
by Newton's method.  Arnoldi from boundary data is standard for Bergman
polynomials (Gustafsson, Putinar, Saff and Stylianopoulos 2009); its
stability is that of Vandermonde with Arnoldi (Brubeck, Nakatsukasa and
Trefethen 2021).

Comparisons against the expansion (:func:`l2_discrepancies`,
:func:`berezin_expectations`) integrate over a collar rule in ``zeta``:
trapezoid in the angle at the oracle's ``L`` samples times Gauss-Legendre
panels in the radius, with breaks at the cutoff's ``rho1`` and ``rho2`` and
then graded toward 1.  ``P_N o psi`` on every radius comes from the modes of
its boundary samples, mode ``k`` scaled by ``r^k``; the expansion's ``X_j``
and ``V`` are evaluated there once by the same scaling, so each further
degree or order costs ``O(nodes)``.  The part of the L2 distance inside
``|phi| < rho1`` is itself a Stokes integral on ``psi(rho1 S^1)``, read from
the primitive's modes.  Each degree is checked before use: that inner part
plus the collar sum of ``|P_N|^2`` is ``||P_N||^2 = 1`` to ``COLLAR_TOL``.
Where it is not (``r^k`` amplifies the noise modes of high degrees, from
``N`` near 300 on the presets), :class:`DegreeTooHighError` is raised rather
than a wrong integral returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegreeTooHighError, DomainError
from .expansion import ExpansionModel, normalized_scale
from .geometry import ExteriorMap
from .series import _horner

GRAM_TOL = 1e-8         # largest Gram deviation an oracle accepts
MIN_SAMPLES = 128       # fewest circle samples of a boundary oracle
MAX_SAMPLES = 2 ** 16   # most circle samples a boundary oracle doubles to
TAIL_TOL = 1e-12        # largest outer-mode share of a resolved sample spectrum
CHOP = 64 * np.finfo(float).eps  # modes below CHOP * max|mode| are dropped before r^k scaling
COLLAR_TOL = 1e-8       # largest deviation from 1 of ||P_N||^2 on the collar rule
COLLAR_Q = 12           # Gauss-Legendre nodes per radial panel of the collar rule
COLLAR_HALVINGS = 5     # collar panels past rho2, each half the width of the last


def _gl_panels(breaks: np.ndarray, q: int):
    """Gauss-Legendre nodes/weights composited over consecutive panels."""
    x, w = leggauss(q)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class BoundaryRule:
    """The boundary form of the area inner product on ``L`` equispaced points
    ``zeta`` of the unit circle: ``nodes = psi(zeta)``, ``dz = psi'(zeta) zeta``
    and ``e_p = exp(P(nodes))`` for the weight ``|e^P|^2``."""

    map: ExteriorMap
    holo_poly: np.ndarray
    zeta: np.ndarray
    nodes: np.ndarray
    dz: np.ndarray
    e_p: np.ndarray

    @property
    def L(self) -> int:
        return self.zeta.size

    @cached_property
    def _e_p_dz(self) -> np.ndarray:
        return self.e_p * self.dz

    @cached_property
    def _inverse_modes(self) -> np.ndarray:
        """``1/k`` at the FFT bin of each signed mode ``k``, 0 at ``k = 0``."""
        k = np.fft.fftfreq(self.L, 1.0 / self.L)
        k[0] = np.inf
        return 1.0 / k

    def primitive(self, v: np.ndarray):
        """Samples of ``B o psi`` with ``B' = v e^P`` for the polynomial sampled as
        ``v`` (its constant mode set to zero), and the tail: the largest ``|c_k|``
        with ``|k| >= 3L/8`` over the largest ``|c_k|``, ``c`` the modes of
        ``(v e^P o psi) psi' zeta``; at the rounding floor when the samples
        resolve it."""
        c = np.fft.fft(v * self._e_p_dz, norm="forward")
        a = np.abs(c)
        L = self.L
        tail = np.max(a[3 * L // 8:L - 3 * L // 8 + 1]) / np.max(a)
        return np.fft.ifft(c * self._inverse_modes, norm="forward"), float(tail)

    def inner(self, v: np.ndarray, primitives: np.ndarray) -> np.ndarray:
        """``<v, g>`` for the polynomial sampled as ``v`` against every ``g``
        whose primitive is sampled in a column of ``primitives``."""
        return np.conj(np.conj(v * self._e_p_dz) @ primitives) / self.L


def boundary_rule(m: ExteriorMap, holo_poly, L: int) -> BoundaryRule:
    """:class:`BoundaryRule` of the weight ``|e^P|^2``, ``P = holo_poly``
    (ascending coefficients), on ``L`` circle samples."""
    poly = np.asarray(holo_poly, dtype=np.complex128)
    zeta = np.exp(2j * np.pi * np.arange(L) / L)
    z, dpsi = m.psi_and_prime(zeta)
    return BoundaryRule(m, poly, zeta, z, dpsi * zeta, np.exp(_horner(poly, z)))


def boundary_samples(m: ExteriorMap, N: int) -> int:
    """Circle samples of a degree-``N`` boundary oracle: the power of two at
    least ``max(4, T + 2) (N + 8)`` and ``MIN_SAMPLES``, with ``T`` the degree
    of ``psi``'s tail in ``1/zeta``.  The integrands of the inner product are
    Laurent polynomials with modes within ``(T + 1) N`` of 0 times the
    weight's fast-decaying modes, so these do not alias."""
    t = max(0, len(m.tail) - 1)
    return max(MIN_SAMPLES, 1 << math.ceil(math.log2(max(4, t + 2) * (N + 8))))


@dataclass(frozen=True, eq=False)
class OraclePolynomials:
    """Orthonormal polynomials from a discrete inner product.

    Column ``n-1`` of ``hess`` holds the projections of ``z * P_{n-1}`` onto
    ``P_0 .. P_{n-1}`` with the normalizing entry on the subdiagonal, and
    ``log_kappa[n]`` the logarithm of the positive leading coefficient.
    ``gram_residuals[n]`` is the largest deviation from the identity in row
    and column ``n`` of the leading ``(n+1) x (n+1)`` block of the discrete
    Gram matrix; ``gram_residual`` is their maximum.  ``basis[:, n]`` holds
    ``P_n`` at ``rule.nodes`` and ``primitive[:, n]`` the primitive ``B_n``
    (``B_n' = P_n e^P``) there.  ``health`` describes the rule and its
    accuracy figures, as ``oracle.json`` reports them.
    """

    degree: int
    hess: np.ndarray
    log_kappa: np.ndarray
    gram_residuals: np.ndarray
    rule: BoundaryRule = field(repr=False)
    basis: np.ndarray = field(repr=False)
    primitive: np.ndarray = field(repr=False)
    health: dict = field(default_factory=dict)

    @property
    def kappa(self) -> np.ndarray:
        return np.exp(self.log_kappa)

    @property
    def gram_residual(self) -> float:
        return float(np.max(self.gram_residuals))

    @cached_property
    def coeff_table(self) -> np.ndarray:
        """Monomial coefficients: ``coeff_table[:, n]`` is ``P_n``."""
        N = self.degree
        coeff = np.zeros((N + 1, N + 1), dtype=np.complex128)
        coeff[0, 0] = self.kappa[0]
        for n in range(1, N + 1):
            shifted = np.zeros(N + 1, dtype=np.complex128)
            shifted[1:n + 1] = coeff[0:n, n - 1]
            shifted[:n] -= coeff[:n, :n] @ self.hess[:n, n - 1]
            coeff[:, n] = shifted / self.hess[n, n - 1]
        return coeff

    def check_degree(self, n: int) -> None:
        """Raise :class:`DomainError` unless ``0 <= n <= degree``."""
        if not 0 <= n <= self.degree:
            raise DomainError(f"degree {n} outside the oracle's degrees 0..{self.degree}")

    def evaluate(self, z, upto: int | None = None) -> np.ndarray:
        """Values ``P_0(z) .. P_upto(z)``, shape ``(len(z), upto+1)``."""
        upto = self.degree if upto is None else upto
        self.check_degree(upto)
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        out = np.empty((zs.size, upto + 1), dtype=np.complex128, order="F")
        out[:, 0] = self.kappa[0]
        for n in range(1, upto + 1):
            out[:, n] = ((zs * out[:, n - 1] - out[:, :n] @ self.hess[:n, n - 1])
                         / self.hess[n, n - 1])
        return out

    def eval_single(self, z, n: int) -> np.ndarray:
        return self.evaluate(z, upto=n)[:, n] if np.ndim(z) else self.evaluate(z, upto=n)[0, n]

    def monic(self, z, n: int):
        """Monic orthogonal polynomial of degree ``n``."""
        return self.eval_single(z, n) / self.kappa[n]


def _gram_residuals(gram: np.ndarray, L: int) -> np.ndarray:
    """Column ``n`` of the upper triangle of ``max(dev, dev^T)``, ``dev = |gram - I|``:
    the largest deviation in row and column ``n`` of the leading block ``n``;
    refused above ``GRAM_TOL``.  The samples resolve every integrand by then,
    so the fault is conditioning, which more samples cannot mend."""
    dev = np.abs(gram - np.eye(gram.shape[0]))
    residuals = np.max(np.triu(np.maximum(dev, dev.T)), axis=0)
    if np.max(residuals) > GRAM_TOL:
        raise DegreeTooHighError(
            f"Gram residual {np.max(residuals):.3e} above {GRAM_TOL:.1e} in the boundary "
            f"oracle at degree {gram.shape[0] - 1} on L = {L} resolved circle samples")
    return residuals


def _circle_arnoldi(rule: BoundaryRule, N: int) -> OraclePolynomials | str:
    """Arnoldi in the boundary form of the inner product on one set of samples:
    the polynomials, whose ``health`` holds ``L``, the largest tail and the Gram
    deviation, or the reason the samples do not resolve the integrand, from the
    first degree whose tail exceeds ``TAIL_TOL``."""
    L = rule.L
    Q = np.empty((L, N + 1), dtype=np.complex128, order="F")
    B = np.empty((L, N + 1), dtype=np.complex128, order="F")
    hess = np.zeros((N + 1, N), dtype=np.complex128)
    log_kappa = np.empty(N + 1, dtype=float)
    one = np.ones(L, dtype=np.complex128)
    b, worst = rule.primitive(one)
    if worst > TAIL_TOL:
        return f"tail {worst:.1e} above {TAIL_TOL:.0e} at degree 0"
    mass = float(rule.inner(one, b[:, None])[0].real)
    if not mass > 0:
        raise DegreeTooHighError(f"boundary mass {mass:.3e} is not positive")
    Q[:, 0], B[:, 0] = one / math.sqrt(mass), b / math.sqrt(mass)
    log_kappa[0] = -0.5 * math.log(mass)
    for n in range(1, N + 1):
        v = rule.nodes * Q[:, n - 1]
        b, tail = rule.primitive(v)
        if tail > TAIL_TOL:
            return f"tail {tail:.1e} above {TAIL_TOL:.0e} at degree {n}"
        worst = max(worst, tail)
        h = np.zeros(n, dtype=np.complex128)
        sq = rule.inner(v, b[:, None])[0].real
        for _ in range(2):  # classical Gram-Schmidt, repeated once on heavy cancellation
            before = sq
            proj = rule.inner(v, B[:, :n])
            v = v - Q[:, :n] @ proj
            b = b - B[:, :n] @ proj
            h += proj
            sq = rule.inner(v, b[:, None])[0].real
            if sq > before / 2:
                break
        if not (sq > 0 and np.isfinite(sq)):
            raise DegreeTooHighError(f"breakdown at degree {n}: residual norm^2 {sq:.3e}")
        nrm = math.sqrt(sq)
        Q[:, n], B[:, n] = v / nrm, b / nrm
        hess[:n, n - 1] = h
        hess[n, n - 1] = nrm
        log_kappa[n] = log_kappa[n - 1] - math.log(nrm)
    gram = (np.conj(B).T @ (Q * rule._e_p_dz[:, None])) / L
    residuals = _gram_residuals(gram, L)
    health = {"kind": "boundary", "L": L, "tail": worst,
              "gram_deviation": float(np.max(residuals))}
    return OraclePolynomials(degree=N, hess=hess, log_kappa=log_kappa,
                             gram_residuals=residuals, rule=rule, basis=Q, primitive=B,
                             health=health)


def boundary_onps(m: ExteriorMap, holo_poly, N: int) -> OraclePolynomials:
    """Orthonormalize ``1, z, ..., z^N`` for the weight ``|e^P|^2`` on the
    domain of ``m``, ``P = holo_poly`` (ascending coefficients), from
    ``boundary_samples(m, N)`` circle samples, doubled while some degree's
    tail exceeds ``TAIL_TOL``, up to ``MAX_SAMPLES``.  ``health`` reports
    ``L``, the largest tail and the Gram deviation.  Raises
    :class:`DegreeTooHighError` when no sample count up to the cap resolves
    the integrands, and at once on a breakdown or a Gram deviation from the
    identity above ``GRAM_TOL`` on resolved samples.
    """
    if holo_poly is None:
        raise DomainError("the boundary oracle needs the weight as |e^P|^2 with a polynomial P")
    L = boundary_samples(m, N)
    while True:
        polys = _circle_arnoldi(boundary_rule(m, holo_poly, L), N)
        if not isinstance(polys, str):
            return polys
        if 2 * L > MAX_SAMPLES:
            raise DegreeTooHighError(f"boundary oracle at degree {N} not resolved at {L} "
                                     f"circle samples: {polys}")
        L *= 2


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


def _modes(samples: np.ndarray):
    """Signed modes ``k`` and coefficients of a Laurent polynomial sampled at
    the equispaced circle points, without those below ``CHOP`` times the
    largest: scaled by ``r^k`` with ``r < 1``, their roundoff would grow."""
    c = np.fft.fft(samples, norm="forward")
    keep = np.flatnonzero(np.abs(c) >= CHOP * np.max(np.abs(c)))
    k = np.where(keep > samples.size // 2, keep - samples.size, keep)
    return k, c[keep]


def _on_circles(k: np.ndarray, d: np.ndarray, c: np.ndarray, radii: np.ndarray,
                L: int) -> np.ndarray:
    """``sum_i c[i] r^d[i] zeta_l^k[i]`` at the ``L`` circle angles ``zeta_l``, one
    row per radius ``r``: term ``i`` lands in bin ``k[i] mod L``, exact at the
    sample angles for any number of terms.  ``d = k`` for a Laurent polynomial;
    annulus terms ``c zeta^m conj(zeta)^n`` have ``(k, d) = (m - n, m + n)``."""
    spec = np.zeros((radii.size, L), dtype=np.complex128)
    np.add.at(spec, (slice(None), k % L), c[None, :] * radii[:, None] ** d[None, :])
    return np.fft.ifft(spec, axis=1, norm="forward")


def _sampled_on_circles(samples: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """A Laurent polynomial sampled at the circle points, on each radius."""
    k, c = _modes(samples)
    return _on_circles(k, k, c, radii, samples.size)


@dataclass(frozen=True, eq=False)
class _Collar:
    """Collar rule ``rho1 < |zeta| < 1`` at a boundary oracle's angles:
    ``weights`` hold ``omega dA / pi`` pulled back by ``psi``, ``dpsi`` is
    ``psi'(zeta)`` and ``chi`` the cutoff on each radius; ``rim`` is the
    Stokes factor ``e^P psi'(zeta) zeta`` on ``|zeta| = rho1``."""

    rho1: float
    radii: np.ndarray
    zeta: np.ndarray
    dpsi: np.ndarray
    chi: np.ndarray
    weights: np.ndarray
    rim: np.ndarray


def _collar(model: ExpansionModel, polys: OraclePolynomials, rho1, rho2) -> _Collar:
    """The collar rule of a boundary oracle for the cutoff rising on
    ``[rho1, rho2]`` (defaults ``rho + 0.05``, ``rho + 0.15``)."""
    rule = polys.rule
    rho = model.inner_radius
    rho1 = rho + 0.05 if rho1 is None else rho1
    rho2 = rho + 0.15 if rho2 is None else rho2
    if not (rule.map.univalence_margin < rho1 < 1.0 and rho1 < rho2):
        raise DomainError(f"cutoff needs univalence margin < rho1 < 1 and rho1 < rho2, "
                          f"got {rho1}, {rho2}")
    top = min(rho2, 1.0)
    grade = 1.0 - (1.0 - top) * 0.5 ** np.arange(1, COLLAR_HALVINGS + 1)
    r, wr = _gl_panels(np.unique(np.concatenate([[rho1, top], grade, [1.0]])), COLLAR_Q)
    zeta = r[:, None] * rule.zeta[None, :]
    z, dpsi = rule.map.psi_and_prime(zeta)
    weights = ((2.0 / rule.L) * (wr * r)[:, None] * (dpsi.real ** 2 + dpsi.imag ** 2)
               * np.exp(2.0 * _horner(rule.holo_poly, z).real))
    z1, dpsi1 = rule.map.psi_and_prime(rho1 * rule.zeta)
    rim = np.exp(_horner(rule.holo_poly, z1)) * dpsi1 * rho1 * rule.zeta
    return _Collar(rho1, r, zeta, dpsi, smoothstep(r, rho1, rho2), weights, rim)


def _inner_part(polys: OraclePolynomials, collar: _Collar, N: int) -> float:
    """``int |P_N|^2 omega dA / pi`` over ``|phi| < rho1`` by Stokes on
    ``psi(rho1 S^1)``: ``P_N`` and its primitive ``B_N`` from their modes."""
    r = np.array([collar.rho1])
    p = _sampled_on_circles(polys.basis[:, N], r)[0]
    b = _sampled_on_circles(polys.primitive[:, N], r)[0]
    return float(np.mean(p * collar.rim * np.conj(b)).real)


def _on_collar(polys: OraclePolynomials, collar: _Collar, N: int):
    """``P_N`` on the collar radii and :func:`_inner_part`, once their sum
    ``||P_N||^2`` is 1 to ``COLLAR_TOL``: else the samples' modes, scaled by
    ``r^k``, have lost ``P_N`` and :class:`DegreeTooHighError` is raised."""
    with np.errstate(over="ignore", invalid="ignore"):   # lost samples may overflow
        p = _sampled_on_circles(polys.basis[:, N], collar.radii)
        inner = _inner_part(polys, collar, N)
        deviation = abs(inner + float(np.sum(collar.weights * (p.real ** 2 + p.imag ** 2)))
                        - 1.0)
    if not deviation <= COLLAR_TOL:   # NaN fails too
        raise DegreeTooHighError(
            f"collar rule reads ||P_N||^2 - 1 = {deviation:.3e} at N = {N} "
            f"(L = {polys.rule.L}), above {COLLAR_TOL:.0e}")
    return p, inner


def l2_discrepancies(model: ExpansionModel, polys: OraclePolynomials, pairs,
                     rho1: float | None = None, rho2: float | None = None) -> np.ndarray:
    """Weighted L2 distance ``|| P_N - chi0 F_N ||`` between the oracle
    polynomial and the cut-off expansion of order ``order``, for each
    ``(N, order)`` in ``pairs`` (``order`` None: the model's).

    ``chi0`` is the quintic smoothstep in ``|phi(z)|`` rising on
    ``[rho1, rho2]`` (defaults ``rho + 0.05``, ``rho + 0.15``); the expansion
    is extended by zero where ``chi0`` vanishes.  The collar ``|phi| > rho1``
    takes the collar rule, on which ``X_j``, ``phi' e^V`` and each degree's
    ``P_N`` are evaluated once; the rest is a Stokes integral per degree.
    Raises :class:`DegreeTooHighError` for a degree the collar rule cannot
    hold (:func:`_on_collar`).
    """
    pairs = list(pairs)
    for N, _ in pairs:
        polys.check_degree(N)
    scales = [normalized_scale(model, N, order) for N, order in pairs]  # degrees checked
    collar = _collar(model, polys, rho1, rho2)
    rule, radii = polys.rule, collar.radii
    L = rule.L
    # V and the X_j by the same mode scaling, over their nonzero modes
    series = [model.szego.v_exterior, *model.coeffs.X]
    modes = [np.flatnonzero(f.coeffs) - f.bandwidth for f in series]
    v, *xs = [_on_circles(k, k, f.coeffs[k + f.bandwidth], radii, L)
              for f, k in zip(series, modes)]
    frame = np.exp(v) / collar.dpsi   # phi' e^V, as in expansion.positioning_factor
    steps = np.arange(L)
    cache = {}
    out = np.empty(len(pairs))
    for i, (N, order) in enumerate(pairs):
        if N not in cache:
            p, inner = _on_collar(polys, collar, N)
            zeta_n = radii[:, None] ** N * rule.zeta[(N * steps) % L][None, :]
            cache[N] = (p, collar.chi[:, None] * frame * zeta_n, inner)
        p, positioned, inner = cache[N]
        order = model.order if order is None else order
        partial = sum(xs[j] * float(N) ** -j for j in range(1, order + 1)) + xs[0]
        diff = p - scales[i] * positioned * partial
        collar_part = float(np.sum(collar.weights * (diff.real ** 2 + diff.imag ** 2)))
        out[i] = math.sqrt(abs(inner + collar_part))
    return out


def l2_discrepancy(model: ExpansionModel, polys: OraclePolynomials, N: int,
                   order: int | None = None, rho1: float | None = None,
                   rho2: float | None = None) -> float:
    """:func:`l2_discrepancies` for one ``(N, order)``."""
    return float(l2_discrepancies(model, polys, [(N, order)], rho1, rho2)[0])


def berezin_expectations(model: ExpansionModel, polys: OraclePolynomials, g, degrees,
                         rho1: float | None = None, rho2: float | None = None) -> np.ndarray:
    """``int G |P_N|^2 omega dA / pi`` for each ``N`` in ``degrees``, for the
    globally smooth test function ``G(z) = chi0(|phi(z)|) g(phi(z))``: the
    annulus test data tapered to zero deep inside the domain by the
    smoothstep on ``[rho1, rho2]``, so the integral lives on the collar rule.
    ``G`` is evaluated once; each degree adds its ``P_N`` and one weighted sum.
    Raises :class:`DegreeTooHighError` for a degree the collar rule cannot
    hold (:func:`_on_collar`)."""
    degrees = list(degrees)
    for N in degrees:
        polys.check_degree(N)
    collar = _collar(model, polys, rho1, rho2)
    wg = (collar.weights * collar.chi[:, None]
          * _on_circles(*g.terms(), collar.radii, polys.rule.L))
    out = []
    for N in degrees:
        p, _ = _on_collar(polys, collar, N)
        out.append(np.sum(wg * (p.real ** 2 + p.imag ** 2)))
    return np.array(out, dtype=np.complex128)


def berezin_expectation(model: ExpansionModel, polys: OraclePolynomials, g, N: int,
                        rho1: float | None = None, rho2: float | None = None) -> complex:
    """:func:`berezin_expectations` for one degree.  Near the boundary ``G``
    agrees with ``g o phi``."""
    return complex(berezin_expectations(model, polys, g, [N], rho1, rho2)[0])
