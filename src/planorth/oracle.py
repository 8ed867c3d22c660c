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
modes ``c`` of ``(P_n e^P o psi) psi' zeta``, one forward FFT per degree, and
both are updated by the same Gram-Schmidt coefficients in one stacked
product.  ``B_v o psi`` is the termwise primitive of the Laurent series
``(v e^P o psi) psi'``, whose mode ``k`` is ``c_k / k``, so by Parseval
``<f, g> = sum_k c_k(f) conj(c_k(g)) / k``; the oracle keeps these modes,
and the Gram gate and the collar rule read the primitives from them.  A
degree takes one pass of classical Gram-Schmidt: one product of ``conj(c /
k)`` with the kept modes gives every projection and, last, the new vector's
own ``<v, v>`` (the low-synchronization form of Swirydowicz, Langou,
Ananthan, Yang and Thomas 2021); after the update one explicit re-norm
reads what is left, and a second pass runs only where the first cancels more
than a factor ``1/sqrt(2)`` of the norm (the test of Daniel, Gragg, Kaufman
and Stewart).  The FFT that forms a degree's modes also checks the samples:
the integrand's modes decay fast, so on samples that resolve it the outer
modes ``|k| >= 3L/8`` sit at the rounding floor of the largest (the test by
which Aurentz and Trefethen chop a Chebyshev series).  Their share is the
degree's ``tail``, read from the modes of ``(z - a_0) P_(n-1)`` as the FFT
forms them, before they are orthogonalized (the kept modes, updated in mode
space, carry the rounding of the updates and would read a conditioning
failure as aliasing).  The first degree whose tail exceeds ``TAIL_TOL``
stops the run as unresolved, and only then are the samples doubled.  The
step multiplies by ``z - a_0``, ``a_0`` the domain's centre (``psi``'s mode
0), not by ``z``: the Krylov space is the same, but the rounding no longer
grows with ``|a_0|`` at every degree; ``a_0`` is added back to the diagonal
of ``hess``.  No 2-D rule is built and no point is mapped by Newton's
method.  Arnoldi from boundary data is standard for Bergman polynomials
(Gustafsson, Putinar, Saff and Stylianopoulos 2009); its stability is that
of Vandermonde with Arnoldi (Brubeck, Nakatsukasa and Trefethen 2021).

Comparisons against the expansion (:func:`l2_discrepancies`,
:func:`berezin_expectations`) integrate over the collar ``rho1 < |zeta| < 1``
in Laurent modes, with no grid: one Gauss-Legendre panel in the radius on the
cutoff's ramp ``[rho1, rho2]`` (``rho + CUTOFF``) and the flat band ``[rho2,
1]`` in closed form, and Parseval in the angle, the sum the trapezoid rule at
the oracle's ``L`` samples takes for integrands holomorphic on ``0 < |zeta| <
inf`` (Trefethen and Weideman, SIAM Rev. 2014).  The weight ``|G|^2``, ``G =
psi' e^(P o psi)``, folds into ``G P_N``, the exact convolution of the kept
modes of ``P_N o psi`` and ``G``; the expansion's side of the L2 comparison
is the modes of the model's products ``A_j = X_j E`` (``model.products``),
not sampled.  So a degree or order costs ``O(modes)``; the degrees of a
request share one forward FFT, one inverse FFT and one table of radial
moments.  Inside ``|phi| < rho1`` a Stokes integral on ``psi(rho1 S^1)`` takes
over.  Each degree is checked before use: that inner part plus the collar's
``||P_N||^2`` is 1 to ``COLLAR_TOL``; where it is not (``r^k`` amplifies the
noise modes of high degrees, from ``N`` near 300 on the presets),
:class:`DegreeTooHighError` is raised rather than a wrong integral returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegreeTooHighError, DomainError, NonFiniteError
from .expansion import ExpansionModel, normalized_scale
from .geometry import ExteriorMap
from .series import _horner

GRAM_TOL = 1e-8         # largest Gram deviation an oracle accepts
MIN_SAMPLES = 128       # fewest circle samples of a boundary oracle
MAX_SAMPLES = 2 ** 16   # most circle samples a boundary oracle doubles to
TAIL_TOL = 1e-12        # largest outer-mode share of a resolved sample spectrum
CHOP = 64 * np.finfo(float).eps  # modes below CHOP * max|mode| are dropped before r^k scaling
COLLAR_TOL = 1e-8       # largest deviation from 1 of ||P_N||^2 on the collar rule
CUTOFF = (0.05, 0.15)   # the cutoff chi0 rises on rho + CUTOFF, rho the model's inner radius
COLLAR_Q = 12           # Gauss-Legendre nodes of the collar rule on the cutoff's ramp

_leggauss = cache(leggauss)   # Gauss-Legendre nodes and weights, once per node count


@dataclass(frozen=True, eq=False)
class BoundaryRule:
    """The boundary form of the area inner product on ``L`` equispaced points
    ``zeta`` of the unit circle: ``nodes = psi(zeta)`` and the Stokes weight
    ``weight = e^P(nodes) psi'(zeta) zeta / L`` for the weight ``|e^P|^2``, the
    mean's ``1/L`` folded in: the forward FFT of its product with samples is
    their modes."""

    map: ExteriorMap
    holo_poly: np.ndarray
    zeta: np.ndarray
    nodes: np.ndarray
    weight: np.ndarray

    @property
    def L(self) -> int:
        return self.zeta.size

    @cached_property
    def _frame_modes(self):
        """Lowest mode and modes of ``G = psi' e^(P o psi)``: the modes that
        :func:`_chopped` keeps of ``G zeta``, shifted down by one, over their
        span."""
        L = self.L
        c = _chopped(np.fft.fft(self.weight))
        c = np.concatenate((c[L // 2 + 1:], c[:L // 2 + 1]))   # modes -L/2 + 1 .. L/2
        kept = np.flatnonzero(c)
        return int(kept[0]) - L // 2, c[kept[0]:kept[-1] + 1]

    @cached_property
    def _inverse_modes(self) -> np.ndarray:
        """``1/k`` at the FFT bin of each signed mode ``k``, 0 at ``k = 0``, as
        complex numbers (a product with complex modes then needs no cast)."""
        k = np.fft.fftfreq(self.L, 1.0 / self.L)
        k[0] = np.inf
        return (1.0 / k).astype(np.complex128)

    def modes(self, v: np.ndarray, c: np.ndarray) -> None:
        """Write into ``c`` the modes of ``(v e^P o psi) psi' zeta`` for the
        polynomial sampled as ``v`` (in place: no array is allocated)."""
        np.multiply(v, self.weight, out=c)
        np.fft.fft(c, out=c)   # out= needs numpy 2.0, the declared floor

    def pairings(self, c: np.ndarray, modes: np.ndarray) -> np.ndarray:
        """``<g, v>`` for the polynomial ``v`` whose :meth:`modes` are ``c`` and
        every ``g`` whose modes are a column of ``modes``: by Parseval,
        ``sum_k c'_k conj(c_k) / k``, one product of ``conj(c / k)`` with
        ``modes``, as mode ``k`` of the primitive ``B_v o psi`` is ``c_k / k``."""
        primitive = c * self._inverse_modes
        return np.conjugate(primitive, out=primitive) @ modes

    def sq_norm(self, c: np.ndarray) -> float:
        """``<v, v> = sum_k |c_k|^2 / k`` for the modes ``c`` of ``v``."""
        return float(np.vdot(c, c * self._inverse_modes).real)


def boundary_rule(m: ExteriorMap, holo_poly, L: int) -> BoundaryRule:
    """:class:`BoundaryRule` of the weight ``|e^P|^2``, ``P = holo_poly``
    (ascending coefficients), on ``L`` circle samples."""
    poly = np.asarray(holo_poly, dtype=np.complex128)
    zeta = np.exp(2j * np.pi * np.arange(L) / L)
    z, dpsi = m.psi_and_prime(zeta)
    return BoundaryRule(m, poly, zeta, z, np.exp(_horner(poly, z)) * (dpsi * zeta) / L)


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
    ``P_n`` at ``rule.nodes`` and ``modes[:, n]``, in FFT order, the modes of
    ``(P_n e^P o psi) psi' zeta`` (:meth:`BoundaryRule.modes`): mode ``k != 0``
    of the primitive ``B_n o psi``, ``B_n' = P_n e^P``, is ``modes[k, n] / k``.
    ``health`` describes the rule and its accuracy figures, as ``oracle.json``
    reports them.
    """

    degree: int
    hess: np.ndarray
    log_kappa: np.ndarray
    gram_residuals: np.ndarray
    rule: BoundaryRule = field(repr=False)
    basis: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)
    health: dict = field(default_factory=dict)

    @property
    def kappa(self) -> np.ndarray:
        return np.exp(self.log_kappa)

    @property
    def gram_residual(self) -> float:
        return float(np.max(self.gram_residuals))

    def _recurrence(self, out: np.ndarray, times_z) -> np.ndarray:
        """Columns ``1 ..`` of ``out`` from column 0 by the Hessenberg recurrence
        ``P_n = (z P_(n-1) - sum_(j<n) hess[j, n-1] P_j) / hess[n, n-1]``, with
        ``times_z(v)`` the column ``z v``; ``out`` is returned."""
        for n in range(1, out.shape[1]):
            out[:, n] = ((times_z(out[:, n - 1]) - out[:, :n] @ self.hess[:n, n - 1])
                         / self.hess[n, n - 1])
        return out

    @cached_property
    def coeff_table(self) -> np.ndarray:
        """Monomial coefficients: ``coeff_table[:, n]`` is ``P_n``."""
        coeff = np.zeros((self.degree + 1, self.degree + 1), dtype=np.complex128)
        coeff[0, 0] = self.kappa[0]
        return self._recurrence(coeff, lambda v: np.concatenate(([0.0], v[:-1])))

    def check_degree(self, n: int) -> None:
        """Raise :class:`DomainError` unless ``0 <= n <= degree``."""
        if not 0 <= n <= self.degree:
            raise DomainError(f"degree {n} outside the oracle's degrees 0..{self.degree}")

    def evaluate(self, z, upto: int | None = None) -> np.ndarray:
        """Values ``P_0(z) .. P_upto(z)``, shape ``(len(z), upto+1)``.  Raises
        :class:`NonFiniteError`, naming the first degree and the largest
        ``|z|``, where a value leaves the float range."""
        upto = self.degree if upto is None else upto
        self.check_degree(upto)
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        out = np.empty((zs.size, upto + 1), dtype=np.complex128, order="F")
        out[:, 0] = self.kappa[0]
        with np.errstate(over="ignore", invalid="ignore"):
            self._recurrence(out, lambda v: zs * v)
        finite = np.isfinite(out).all(axis=0)
        if not finite.all():
            raise NonFiniteError(f"oracle polynomial of degree {np.argmin(finite)} out of "
                                 f"float range (|z| up to {np.max(np.abs(zs)):.4g})")
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


def _tail(c: np.ndarray) -> float:
    """The tail of the modes ``c`` (FFT order): the largest ``|c_k|`` with
    ``|k| >= 3L/8`` over the largest ``|c_k|``; at the rounding floor when the
    samples resolve the integrand, and NaN, which passes, when every mode is 0."""
    L = c.size
    a = np.abs(c)
    top = a.max()
    return float(a[3 * L // 8:L - 3 * L // 8 + 1].max() / top) if top else math.nan


def _circle_arnoldi(rule: BoundaryRule, N: int) -> OraclePolynomials | str:
    """Arnoldi in the boundary form of the inner product on one set of samples:
    the polynomials, whose ``health`` holds ``L``, the largest tail, the Gram
    deviation and ``second_passes``, the number of degrees that took a second
    Gram-Schmidt pass; or the reason the samples do not resolve the integrand,
    naming the first degree whose tail exceeds ``TAIL_TOL``.

    Degree ``n`` forms ``v = (z - a_0) Q_(n-1)`` (``1`` at degree 0), ``a_0 =
    map.tail[0]``, and its modes, and reads their tail before the first pass,
    so the first degree that is not resolved stops the run, not a later
    breakdown.  A pass takes the projections of ``v`` onto ``Q_0 .. Q_(n-1)``
    and ``<v, v>`` from one :meth:`BoundaryRule.pairings` with the kept modes,
    updates the samples and the modes of ``v`` in one stacked product and
    reads the norm left by one :meth:`BoundaryRule.sq_norm`.  ``a_0`` is added
    to the diagonal of ``hess`` at the end, which then holds the recurrence
    in ``z``."""
    L = rule.L
    a0 = rule.map.tail[0] if len(rule.map.tail) else 0.0
    nodes = rule.nodes - a0
    QC = np.empty((2 * L, N + 1), dtype=np.complex128, order="F")  # Q_n samples over modes
    Q, C = QC[:L], QC[L:]
    hess = np.zeros((N + 1, N), dtype=np.complex128)
    log_kappa = np.empty(N + 1, dtype=float)
    Q[:, 0] = 1.0
    worst, second = 0.0, 0
    for n in range(N + 1):
        qc = QC[:, n]   # v: its samples over its modes c, orthogonalized in place
        c = qc[L:]
        if n:
            np.multiply(nodes, Q[:, n - 1], out=qc[:L])
        rule.modes(qc[:L], c)
        tail = _tail(c)
        if tail > TAIL_TOL:
            return f"tail {tail:.1e} above {TAIL_TOL:.0e} at degree {n}"
        worst = max(worst, tail)
        if not n:   # P_0, the constant over the square root of the mass
            mass = rule.sq_norm(c)
            if not mass > 0:
                raise DegreeTooHighError(f"boundary mass {mass:.3e} is not positive")
            qc /= math.sqrt(mass)
            log_kappa[0] = -0.5 * math.log(mass)
            continue
        for again in range(2):  # classical Gram-Schmidt, repeated once on heavy cancellation
            g = rule.pairings(c, C[:, :n + 1])   # <Q_j, v> and, last, <v, v>
            proj = g[:n].conj()
            qc -= QC[:, :n] @ proj
            h = h + proj if again else proj
            sq = rule.sq_norm(c)
            if again or sq > g[n].real / 2:
                break
            second += 1
        if not (sq > 0 and math.isfinite(sq)):
            raise DegreeTooHighError(f"breakdown at degree {n}: residual norm^2 {sq:.3e}")
        nrm = math.sqrt(sq)
        qc *= 1.0 / nrm
        hess[:n, n - 1] = h
        hess[n, n - 1] = nrm
        log_kappa[n] = log_kappa[n - 1] - math.log(nrm)
    hess[np.diag_indices(N)] += a0
    # <Q_m, Q_n> by Parseval, the FFT of the samples Q_m against the modes C_n / k of
    # the primitives: Gram-Schmidt updated Q and C alike, and this sees where they part
    primitives = C.T * rule._inverse_modes
    fresh = Q * rule.weight[:, None]
    gram = np.conjugate(primitives, out=primitives) @ np.fft.fft(fresh, axis=0, out=fresh)
    residuals = _gram_residuals(gram, L)
    health = {"kind": "boundary", "L": L, "tail": worst,
              "gram_deviation": float(np.max(residuals)), "second_passes": second}
    return OraclePolynomials(degree=N, hess=hess, log_kappa=log_kappa,
                             gram_residuals=residuals, rule=rule, basis=Q, modes=C,
                             health=health)


def boundary_onps(m: ExteriorMap, holo_poly, N: int) -> OraclePolynomials:
    """Orthonormalize ``1, z, ..., z^N`` for the weight ``|e^P|^2`` on the
    domain of ``m``, ``P = holo_poly`` (ascending coefficients), from
    ``boundary_samples(m, N)`` circle samples, doubled while some degree's
    tail exceeds ``TAIL_TOL``, up to ``MAX_SAMPLES``.  ``health`` reports
    ``L``, the largest tail, the Gram deviation and the number of degrees
    that took a second Gram-Schmidt pass.  Raises
    :class:`DegreeTooHighError` when no sample count up to the cap resolves
    the integrands, and at once on a breakdown or a Gram deviation from the
    identity above ``GRAM_TOL`` on resolved samples; before any run when
    ``boundary_samples`` already exceeds the cap.
    """
    if holo_poly is None:
        raise DomainError("the boundary oracle needs the weight as |e^P|^2 with a polynomial P")
    L = boundary_samples(m, N)
    if L > MAX_SAMPLES:
        raise DegreeTooHighError(f"boundary oracle at degree {N} needs L = {L} circle "
                                 f"samples, above the cap of {MAX_SAMPLES}")
    while True:
        polys = _circle_arnoldi(boundary_rule(m, holo_poly, L), N)
        if not isinstance(polys, str):
            return polys
        if 2 * L > MAX_SAMPLES:
            raise DegreeTooHighError(f"boundary oracle at degree {N} not resolved at {L} "
                                     f"circle samples: {polys}")
        L *= 2


def oracle_kernel(polys: OraclePolynomials, z, w, upto: int | None = None) -> complex:
    """Reproducing kernel ``sum_{j<=N} P_j(z) conj(P_j(w))``, from one evaluation."""
    p = polys.evaluate(np.array([z, w], dtype=np.complex128), upto=upto)
    return complex(np.sum(p[0] * np.conj(p[1])))


def smoothstep(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Quintic smoothstep rising 0 -> 1 on ``[lo, hi]``."""
    t = np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _chopped(c: np.ndarray) -> np.ndarray:
    """The modes ``c`` of Laurent polynomials, one per row in FFT order, with
    those below ``CHOP`` times their row's largest zeroed in place: scaled by
    ``r^k``, their roundoff would grow."""
    c[np.abs(c) < CHOP * np.max(np.abs(c), axis=-1, keepdims=True)] = 0.0
    return c


@dataclass(frozen=True, eq=False)
class _Collar:
    """Radial rule of the collar ``rho1 < |zeta| < 1``: a column for each
    Gauss-Legendre radius of the ramp ``[rho1, top]``, ``top = min(rho2, 1)``,
    weighted ``2 w r``, and a last for the flat band ``[top, 1]``; the cutoff
    ``chi`` on each and ``rest = 1 - chi`` (the mirrored smoothstep, exact where
    ``chi`` is near 1), 1 and 0 on the band.  ``rim`` is the Stokes factor ``e^P
    psi'(zeta) zeta`` on ``|zeta| = rho1``."""

    rho1: float
    log_top: float
    radii: np.ndarray
    weights: np.ndarray
    chi: np.ndarray
    rest: np.ndarray
    rim: np.ndarray

    def moments(self, k: np.ndarray) -> np.ndarray:
        """Rows ``weights r^(2 k_i)`` of the modes ``k`` and the band's ``int 2 r^(2k + 1)
        dr``, not rescaled: a non-finite row makes a non-finite sum, which its reader refuses."""
        k = np.asarray(k, dtype=float)[:, None]
        band = np.divide(-np.expm1((2.0 * k + 2.0) * self.log_top), k + 1.0, where=k != -1,
                         out=np.full(k.shape, -2.0 * self.log_top))   # its limit at k = -1
        return np.hstack((self.weights * np.exp(2.0 * k * np.log(self.radii)), band))


def _collar(model: ExpansionModel, polys: OraclePolynomials) -> _Collar:
    """The collar rule of a boundary oracle for the cutoff rising on ``[rho1, rho2]
    = rho + CUTOFF``; a ``rho1 >= 1``, outside the domain, is refused with :class:`DomainError`."""
    rule = polys.rule
    rho1, rho2 = (model.inner_radius + c for c in CUTOFF)
    if not rho1 < 1.0:
        raise DomainError(f"cutoff needs rho1 = inner radius + {CUTOFF[0]} < 1, got {rho1}")
    top = min(rho2, 1.0)
    x, w = 0.5 * (top - rho1) * np.array(_leggauss(COLLAR_Q))   # scaled to the ramp
    r = 0.5 * (rho1 + top) + x
    z1, dpsi1 = rule.map.psi_and_prime(rho1 * rule.zeta)
    rim = np.exp(_horner(rule.holo_poly, z1)) * dpsi1 * rho1 * rule.zeta
    return _Collar(rho1, math.log(top), r, 2.0 * w * r, np.append(smoothstep(r, rho1, rho2), 1.0),
                   np.append(smoothstep(-r, -rho2, -rho1), 0.0), rim)


def _on_collar(polys: OraclePolynomials, collar: _Collar, Ns: list, reach):
    """What the collar rule needs of the distinct degrees ``Ns``, from one
    forward FFT of the stacked samples of every ``P_N`` and the oracle's
    ``modes / k`` of every ``B_N``.

    The lowest mode ``k0`` and modes ``alpha`` of ``G (P_N o psi)`` are the
    exact convolution of the chopped modes of ``P_N o psi`` and ``G``.  The
    inner part ``int |P_N|^2 omega dA / pi`` over ``|phi| < rho1`` is Stokes
    on ``psi(rho1 S^1)`` from the modes of ``P_N`` and ``B_N`` scaled to that
    circle, one inverse FFT for every degree.  One table ``(shift, m, m1)``,
    the rows ``m`` of :meth:`_Collar.moments` and their sums ``m1``, serves
    every degree: each mode of every ``alpha`` and of the ranges ``reach(N, k0,
    alpha.size)`` the caller reads once, not the gaps between them; mode ``k``
    of a range ``[a, b)`` is row ``k - shift[a, b]``.  Each degree, in order, is
    checked: unless ``||P_N||^2 = inner + sum_k |alpha_k|^2 sum_i w_i
    r_i^(2k)`` is 1 to ``COLLAR_TOL``, the modes, scaled by ``r^k``, have lost
    ``P_N`` and :class:`DegreeTooHighError` names the first such degree.
    Returns ``{N: (k0, alpha, inner)}`` and the table."""
    rule = polys.rule
    L, n = rule.L, len(Ns)
    g0, g = rule._frame_modes
    f = np.concatenate((_chopped(np.fft.fft(polys.basis[:, Ns].T, norm="forward")),
                        _chopped(polys.modes[:, Ns].T * rule._inverse_modes)))
    degrees, ranges = {}, []
    with np.errstate(over="ignore", invalid="ignore"):   # lost modes may overflow
        # mode k on the circle |zeta| = rho1, where it is kept
        pb = np.fft.ifft(np.where(f != 0, f * collar.rho1 ** np.fft.fftfreq(L, 1.0 / L), 0.0),
                         norm="forward")
        inner = np.mean(pb[:n] * collar.rim * np.conj(pb[n:]), axis=1).real
        p = np.concatenate((f[:n, L // 2 + 1:], f[:n, :L // 2 + 1]), axis=1)   # from -L/2 + 1
        kept = p != 0
        first, last = kept.argmax(axis=1), L - kept[:, ::-1].argmax(axis=1)
        for i, N in enumerate(Ns):
            alpha = np.convolve(p[i, first[i]:last[i]], g)
            k0 = int(first[i]) + 1 - L // 2 + g0
            degrees[N] = (k0, alpha)
            ranges += [(k0, k0 + alpha.size), *reach(N, k0, alpha.size)]
        blocks, shift = [], {}   # the distinct ranges, merged where they meet, end to end
        for a, b in sorted(set(ranges)):
            if not blocks or a > blocks[-1][1]:
                blocks.append([a, b, a - sum(y - x for x, y, _ in blocks)])
            blocks[-1][1] = max(blocks[-1][1], b)
            shift[a, b] = blocks[-1][2]   # mode k of the range [a, b) is row k - shift
        m = collar.moments(np.concatenate([np.arange(a, b) for a, b, _ in blocks] + [[]]))
        m1 = np.sum(m, axis=1)
        for i, (N, (k0, alpha)) in enumerate(degrees.items()):
            at = k0 - shift[k0, k0 + alpha.size]
            norm = inner[i] + float(m1[at:at + alpha.size] @ np.abs(alpha) ** 2)
            if not abs(norm - 1.0) <= COLLAR_TOL:   # NaN fails too
                raise DegreeTooHighError(
                    f"collar rule reads ||P_N||^2 - 1 = {abs(norm - 1.0):.3e} at N = {N} "
                    f"(L = {L}), above {COLLAR_TOL:.0e}")
            degrees[N] += (float(inner[i]),)
    return degrees, (shift, m, m1)


def l2_discrepancies(model: ExpansionModel, polys: OraclePolynomials, pairs) -> np.ndarray:
    """Weighted L2 distance ``|| P_N - chi0 F_N ||`` between the oracle
    polynomial and the cut-off expansion of order ``order``, for each
    ``(N, order)`` in ``pairs`` (``order`` None: the model's).

    ``chi0`` is the quintic smoothstep in ``|phi(z)|`` rising on ``rho + CUTOFF``.
    ``B = G F_N = scale E zeta^N sum_j N^-j X_j``, with the model's outer
    factor ``E = e^(V o psi + h)`` at bandwidth ``2M``, has the modes ``beta``
    of the products ``A_j = X_j E`` shifted by ``N``: the rows of
    ``model.products``, which the moment table also reads.  The collar
    part ``sum_k sum_i m_ik |alpha_k - chi_i beta_k|^2``, ``m_ik`` the moment
    table, is ``sum_k M_k |alpha_k - beta_k + u_k beta_k|^2 + S_k |beta_k|^2``,
    free of cancellation, with ``u_k`` the ``m_k``-weighted mean of ``1 - chi``
    and ``S_k`` the weighted sum of squares of ``chi`` about its mean.  Raises
    :class:`DegreeTooHighError` for a degree the collar cannot hold."""
    pairs = list(pairs)
    for N, _ in pairs:
        polys.check_degree(N)
    scales = [normalized_scale(model, N, order) for N, order in pairs]  # degrees checked
    collar = _collar(model, polys)
    beta = model.products   # modes -S .. S of every A_j
    b0 = -(beta.shape[1] // 2)

    def span(N, a0, n):   # the modes of alpha and of the shifted beta
        return [(min(a0, b0 + N), max(a0 + n, b0 + N + beta.shape[1]))]

    degrees, (shift, m, m1) = _on_collar(polys, collar, list(dict.fromkeys(N for N, _ in pairs)),
                                         span)
    u = np.sum(m * collar.rest, axis=1) / m1
    spread = np.sum(m * (collar.rest - u[:, None]) ** 2, axis=1)
    per_degree = {}
    for N, (a0, alpha, inner) in degrees.items():   # alpha and every order's sum of beta
        (k1, k2), = span(N, a0, alpha.size)
        a = np.zeros(k2 - k1, dtype=np.complex128)
        a[a0 - k1:a0 - k1 + alpha.size] = alpha
        sums = np.zeros((beta.shape[0], k2 - k1), dtype=np.complex128)
        sums[:, b0 + N - k1:b0 + N - k1 + beta.shape[1]] = np.cumsum(
            float(N) ** -np.arange(beta.shape[0])[:, None] * beta, axis=0)
        per_degree[N] = (slice(k1 - shift[k1, k2], k2 - shift[k1, k2]), a, sums, inner)
    out = np.empty(len(pairs))
    for i, (N, order) in enumerate(pairs):
        at, a, sums, inner = per_degree[N]
        b = scales[i] * sums[model.order if order is None else order]
        q = m1[at] * np.abs(a - b + u[at] * b) ** 2 + spread[at] * np.abs(b) ** 2
        out[i] = math.sqrt(abs(inner + float(np.sum(q))))
    return out


def berezin_expectations(model: ExpansionModel, polys: OraclePolynomials, terms,
                         degrees) -> np.ndarray:
    """``int G |P_N|^2 omega dA / pi`` for each ``N`` in ``degrees``, for the
    globally smooth test function ``G(z) = chi0(|phi(z)|) g(phi(z))``: ``g``
    has the terms ``(m - n, m + n, c)`` of ``c zeta^m conj(zeta)^n`` and the
    cutoff tapers it to zero deep inside the domain, so the integral lives on
    the collar.  With the modes ``alpha`` of ``G P_N`` (:func:`_on_collar`) it
    is ``sum_t c_t sum_k alpha_k conj(alpha_(k + m - n)) M(k + m)``, ``M(j) =
    sum_i chi_i m_ij`` over the columns of the call's one moment table; a term
    whose ``|m - n|`` reaches the span of ``alpha`` gives exactly 0.  Raises
    :class:`NonFiniteError` where a moment or a sum leaves the float range,
    and :class:`DegreeTooHighError` for a degree the collar rule cannot hold."""
    degrees = list(degrees)
    for N in degrees:
        polys.check_degree(N)
    collar = _collar(model, polys)
    diff, total, c = terms
    m_t = (total + diff) // 2   # the products alpha_k conj(alpha_(k + m - n)) take M(k + m)

    def live(k0, n):   # terms, offsets of their first products, products, first j
        t = np.flatnonzero(np.abs(diff) < n)
        lo = np.maximum(0, -diff[t])
        return t, lo, n - np.abs(diff[t]), k0 + lo + m_t[t]

    def reach(N, k0, n):   # the moments the live terms read
        _, _, size, j = live(k0, n)
        return zip(j, j + size)

    per_degree, (shift, m, _) = _on_collar(polys, collar, list(dict.fromkeys(degrees)), reach)
    out = np.zeros(len(degrees), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        moment = np.sum(m * collar.chi, axis=1)
        for i, N in enumerate(degrees):   # every product of every live term at once
            k0, alpha, _ = per_degree[N]
            t, lo, n, j = live(k0, alpha.size)
            if not t.size:
                continue
            start = np.cumsum(n) - n
            at = np.arange(n.sum()) - np.repeat(start, n)   # place within its term
            k = np.repeat(lo, n) + at
            pairs = alpha[k] * np.conj(alpha[k + np.repeat(diff[t], n)])
            pairs *= moment[np.repeat(j - [shift[r] for r in zip(j, j + n)], n) + at]
            out[i] = np.sum(c[t] * np.add.reduceat(pairs, start))
    if not np.isfinite(out).all():
        raise NonFiniteError(f"test function out of float range on the collar rule "
                             f"(radii from {collar.radii[0]:.4g}, L = {polys.rule.L})")
    return out
