"""Seeded inputs, operations and output checks of the three workloads.

Each workload hands the program only generated inputs (config files for the
CLI workloads, points and degrees for ``eval-sweep``) and checks every output
outside the timed span.  Inputs come in *rounds*: a round is a fixed design of
operation slots whose cost-driving parameters sit on a fixed grid or are
drawn by stratified (Latin) sampling, while the seed draws the rest, so two
seeds give different inputs with nearly the same cost profile.  The CLI
workloads run their slots in a fixed order; ``eval-sweep`` shuffles its
request mix.  A run measures the first ``ROUNDS`` rounds of its workload,
repeated in passes.

Failure kinds, all counted against the attempted operations:

* ``exception`` -- a bare (non-``PlanorthError``) exception escaped;
* ``typed_error`` -- a ``PlanorthError`` on an in-scope input;
* ``exit_code`` -- a CLI command returned nonzero (the stage is recorded);
* ``nonfinite`` -- a NaN or inf in an output;
* ``wrong_value`` -- an output failed its correctness check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Frozen copies of planorth.presets.PRESETS at the commit that introduced the
# benchmark, so that the inputs stay fixed if the shipped presets change.
PRESETS = {
    "disk-const": {"map": {"cap": 1.0, "tail": []},
                   "weight": {"kind": "const", "value": 1.0},
                   "rho": 0.7, "M": 16, "K": 32},
    "disk-expre03": {"map": {"cap": 1.0, "tail": []},
                     "weight": {"kind": "exp-re-linear", "alpha": [0.3, 0.0]},
                     "rho": 0.5, "M": 16, "K": 32},
    "ellipse-const": {"map": {"cap": 1.5, "tail": [[0.0, 0.0], [0.5, 0.0]]},
                      "weight": {"kind": "const", "value": 1.0},
                      "rho": 0.7, "M": 16, "K": 32},
    "ellipse-expre": {"map": {"cap": 1.5, "tail": [[0.0, 0.0], [0.5, 0.0]]},
                      "weight": {"kind": "exp-re-linear", "alpha": [0.5, 0.0]},
                      "rho": 0.75, "M": 24, "K": 48},
    "perturbed-expre": {"map": {"cap": 1.0, "tail": [[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]]},
                        "weight": {"kind": "exp-re-linear", "alpha": [0.2, 0.0]},
                        "rho": 0.72, "M": 24, "K": 48},
}

# Tolerances of the output checks.
REFERENCE_TOL = 1e-12      # preset model.json vs. reference, relative to max(1, |ref|)
CONST_WEIGHT_TOL = 1e-12   # X_j == 0 and d_j == binomial(1/2, j) for constant weights
HIERARCHY_TOL = 1e-9       # every hierarchy residual in model.json
GRAM_TOL = 1e-8            # oracle Gram residual in summary.json
DIST_RATE_CONST = 20.0     # |error| at N_max <= C ||g||_1 N_max^-(kappa+1) (observed C <= 5)
EVAL_REL_TOL = 1e-10       # floor of the relative tolerance of point values (see point_tol)
NEWTON_TOL = 1e-13         # planorth.geometry.map_forward's documented residual tolerance
NEWTON_GAIN = 4.0          # 2 (|phi|^(2n) in bw_kernel_diag) times a safety factor of 2
DIST_REL_TOL = 1e-10       # boundary sum vs. recomputation, relative to its absolute-value bound


class CheckFailure(Exception):
    """An output failed a correctness check."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass
class Op:
    """One operation: its request kind, program inputs and check data."""

    kind: str
    label: str
    inputs: dict
    expect: dict = field(default_factory=dict)


def round_rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def latin(rng: random.Random, n: int) -> list:
    """``n`` stratified draws in [0, 1): one per stratum, strata shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(s + rng.random()) / n for s in strata]


def grid(n: int, step: int) -> list:
    """The midpoints of ``n`` equal strata of [0, 1), visited in the order
    ``i * step mod n`` (``step`` coprime to ``n``) to spread small and large
    values over the slots of a design."""
    return [((i * step) % n + 0.5) / n for i in range(n)]


def polar(r: float, t: float) -> list:
    return [r * math.cos(t), r * math.sin(t)]


def psi(cfg_map: dict, zeta):
    """Inverse exterior map ``cap*zeta + sum_j tail[j] zeta^-j`` of a config map."""
    zeta = np.asarray(zeta, dtype=np.complex128)
    out = cfg_map["cap"] * zeta
    for j, (re_, im_) in enumerate(cfg_map["tail"]):
        out = out + complex(re_, im_) * zeta ** (-j)
    return out


def all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    return True


def attempt(workload, op: Op):
    """Run one operation and check it; return ``(latency_s, failure)``.

    Only the program call is timed.  ``failure`` is ``None`` or a
    ``(kind, detail)`` pair.
    """
    try:
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        finally:
            latency = time.perf_counter() - t0
    except workload.typed_error as exc:
        return latency, ("typed_error", f"{type(exc).__name__}: {exc}"[:300])
    except Exception as exc:  # noqa: BLE001 - every escaping exception is a failure
        return latency, ("exception", f"{type(exc).__name__}: {exc}"[:300])
    try:
        workload.check(op, out)
    except CheckFailure as fail:
        return latency, (fail.kind, fail.detail[:300])
    except Exception as exc:  # noqa: BLE001 - a malformed output breaks its check
        return latency, ("wrong_value", f"check raised {type(exc).__name__}: {exc}"[:300])
    return latency, None


# ---------------------------------------------------------------------------
# CLI workloads


class CliWorkload:
    """Operations that call ``planorth.cli.main`` on generated config files."""

    ROUNDS = 1

    def __init__(self, seed: int, workdir: Path):
        import jsonschema
        import planorth.cli
        import planorth.errors
        self.cli = planorth.cli
        self.validate = jsonschema.validate
        self.typed_error = planorth.errors.PlanorthError
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def make_round(self, round_no: int) -> list:
        return self.write_configs(round_no, self.specs(round_no))

    def write_configs(self, round_no: int, specs: list) -> list:
        ops = []
        for i, (kind, label, cfg, expect) in enumerate(specs):
            path = self.workdir / f"r{round_no}_{i}.json"
            path.write_text(json.dumps(cfg))
            out = self.workdir / f"out_r{round_no}_{i}"
            ops.append(Op(kind, label, {"config": str(path), "out": str(out)}, expect))
        return ops

    def run(self, op: Op):
        out = Path(op.inputs["out"])
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        argv = [op.kind, "--config", op.inputs["config"], "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, err.getvalue()

    def check(self, op: Op, result) -> None:
        code, err = result
        if code != 0:
            stage = re.search(r"\[stage: ([^\]]+)\]", err)
            where = stage.group(1) if stage else "no stage"
            raise CheckFailure("exit_code", f"{op.kind} exit {code} at {where}: {err.strip()}")
        self.check_artifacts(op, Path(op.inputs["out"]))

    @staticmethod
    def load(path: Path) -> dict:
        payload = json.loads(path.read_text())
        if not all_finite(payload):
            raise CheckFailure("nonfinite", f"{path.name} holds NaN or inf")
        return payload

    @staticmethod
    def bytes_written(op: Op) -> int:
        out = Path(op.inputs["out"])
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(op.inputs["out"], ignore_errors=True)


def _domain_rho(cfg_map: dict) -> float:
    """Inner radius just outside the zeros of psi' (the collar the program needs)."""
    cap, tail = cfg_map["cap"], cfg_map["tail"]
    r = 0.0
    for j, (re_, im_) in enumerate(tail):
        if j >= 1 and (re_ or im_):
            # psi'(zeta) = cap - j a_j zeta^-(j+1) for a single tail mode
            r = max(r, (j * math.hypot(re_, im_) / cap) ** (1.0 / (j + 1)))
    return round(max(0.7, 1.05 * r + 0.06), 4)


class ExpandSweep(CliWorkload):
    """``planorth expand`` on the five presets (kappa=4) plus a 60-slot design."""

    name = "expand-sweep"
    WEIGHTS = ("const", "exp-re-linear", "exp-re-poly")
    DOMAINS = ("disk", "ellipse", "perturbed")

    def __init__(self, seed: int, workdir: Path, reference: dict):
        super().__init__(seed, workdir)
        self.reference = reference

    def specs(self, round_no: int) -> list:
        """Presets, then the design slots in a fixed order."""
        rng = round_rng(self.name, self.seed, round_no)
        specs = [("expand", f"preset {name} k=4", {"domain": PRESETS[name], "kappa": 4},
                  {"preset": name, "const_weight": cfg["weight"]["kind"] == "const"})
                 for name, cfg in PRESETS.items()]
        # Constant weights (X_j == 0, a few ms each) only at M=16, so that the
        # median latency falls inside the dense middle of the exp-weight slots
        # rather than in the gap between the two groups.
        slots = [(dom, w, kappa, M) for dom in self.DOMAINS for w in self.WEIGHTS
                 for kappa in (1, 2, 3, 4) for M in (16, 24)
                 if not (w == "const" and M == 24)]
        # Magnitudes drive the cost (how dense the series grids get) and the
        # truncation failures, so they sit on a fixed grid; the seed draws
        # every phase and the constant weight's value.
        n_dom = len(slots) // 3
        dom_u = {d: iter(grid(n_dom, 3)) for d in self.DOMAINS}
        weight_u = {w: (iter(grid(n, 7)), iter(grid(n, 11)))
                    for w, n in (("const", 12), ("exp-re-linear", 24), ("exp-re-poly", 24))}
        ks = iter([2, 3] * n_dom)
        for dom, wname, kappa, M in slots:
            u = next(dom_u[dom])
            if dom == "disk":
                cmap = {"cap": 1.0, "tail": []}
            elif dom == "ellipse":
                a = 1.0 + u                      # semi-axes a x 1, aspect in [1, 2)
                cmap = {"cap": (a + 1.0) / 2, "tail": [[0.0, 0.0], [(a - 1.0) / 2, 0.0]]}
            else:
                eps = polar(0.12 * u, rng.uniform(0, 2 * math.pi))
                cmap = {"cap": 1.0, "tail": [[0.0, 0.0]] * next(ks) + [eps]}
            u1, u2 = (next(it) for it in weight_u[wname])
            if wname == "const":
                weight = {"kind": "const", "value": 10 ** rng.uniform(-0.3, 0.3)}
            elif wname == "exp-re-linear":
                weight = {"kind": wname, "alpha": polar(0.5 * u1, rng.uniform(0, 2 * math.pi))}
            else:
                weight = {"kind": wname,
                          "coeffs": [[0.0, 0.0], polar(0.5 * u1, rng.uniform(0, 2 * math.pi)),
                                     polar(0.5 * u2, rng.uniform(0, 2 * math.pi))]}
            cfg = {"domain": {"map": cmap, "weight": weight, "rho": _domain_rho(cmap),
                              "M": M, "K": 2 * M}, "kappa": kappa}
            specs.append(("expand", f"{dom} {wname} k={kappa} M={M}", cfg,
                          {"const_weight": wname == "const"}))
        return specs

    def check_artifacts(self, op: Op, out: Path) -> None:
        model = self.load(out / "model.json")
        self.validate(model, self.cli.MODEL_SCHEMA)
        resid = model["diagnostics"]["hierarchy_residuals"]
        if len(resid) != model["kappa"] or max(resid, default=0.0) > HIERARCHY_TOL:
            raise CheckFailure("wrong_value", f"hierarchy residuals {resid}")
        if op.expect.get("const_weight"):
            check_const_weight(model)
        if "preset" in op.expect:
            check_against_reference(model, self.reference[op.expect["preset"]])


def _modes(entry: dict) -> dict:
    return {k: complex(*c) for k, c in zip(entry["modes"], entry["coeffs"])}


def _max_dev(a: dict, b: dict) -> float:
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)), default=0.0)


def check_const_weight(model: dict) -> None:
    """Constant weight: every correction vanishes and ``D_N = sqrt(1 + 1/N)``."""
    for corr in model["corrections"]:
        if any(abs(complex(*c)) > CONST_WEIGHT_TOL for c in corr["coeffs"]):
            raise CheckFailure("wrong_value", f"X_{corr['order']} is not zero")
    for j, d in enumerate(model["norm"]["d"], start=1):
        exact = math.prod(0.5 - i for i in range(j)) / math.factorial(j)
        if abs(d - exact) > CONST_WEIGHT_TOL:
            raise CheckFailure("wrong_value", f"d_{j} = {d!r}, expected {exact!r}")


def check_against_reference(model: dict, ref: dict) -> None:
    """Preset values against the reference file, relative to max(1, |ref|)."""
    def close(name, got, want):
        scale = max([1.0] + [abs(v) for v in want.values()])
        dev = _max_dev(got, want)
        if not dev <= REFERENCE_TOL * scale:
            raise CheckFailure("wrong_value", f"{name} deviates from reference by {dev:.3e}")

    corr = {c["order"]: _modes(c) for c in model["corrections"]}
    for order, want in ref["corrections"].items():
        close(f"X_{order}", corr.get(int(order), {}), {int(k): complex(*v) for k, v in want})
    close("v_exterior", _modes(model["szego"]["v_exterior"]),
          {int(k): complex(*v) for k, v in ref["v_exterior"]})
    close("v_infinity", {0: model["szego"]["v_infinity"]}, {0: ref["v_infinity"]})
    for key in ("d", "c"):
        close(key, dict(enumerate(model["norm"][key])), dict(enumerate(ref[key])))


def reference_entry(model: dict) -> dict:
    """The parts of a preset's model.json that the reference file keeps."""
    return {"corrections": {str(c["order"]): [[k, v] for k, v in zip(c["modes"], c["coeffs"])]
                            for c in model["corrections"]},
            "v_exterior": [[k, v] for k, v in zip(model["szego"]["v_exterior"]["modes"],
                                                  model["szego"]["v_exterior"]["coeffs"])],
            "v_infinity": model["szego"]["v_infinity"],
            "d": model["norm"]["d"], "c": model["norm"]["c"]}


def real_test_function(rng: random.Random) -> list:
    """Real-valued ``g = sum c_mn z^m conj(z)^n`` as CLI terms.

    The modes are fixed, so that the cost of a request does not depend on the
    seed; the coefficients are seeded.
    """
    terms = [[0, 0, rng.uniform(-0.5, 0.5), 0.0], [1, 1, rng.uniform(0.1, 0.5), 0.0]]
    for m, n in ((1, 0), (2, -1)):
        c = polar(rng.uniform(0.05, 0.3), rng.uniform(0, 2 * math.pi))
        terms += [[m, n, c[0], c[1]], [n, m, c[0], -c[1]]]
    return terms


def terms_l1(terms: list) -> float:
    return sum(math.hypot(t[2], t[3]) for t in terms)


class OracleCheck(CliWorkload):
    """``planorth verify`` / ``planorth distributional`` against the oracle."""

    name = "oracle-check"
    # (command, preset, kappa, N_max), run in this order with N lists evenly
    # spaced from 8 to N_max: every preset, command, kappa and N_max appears,
    # and neither the round's cost nor its memory profile depends on the seed.
    SLOTS = (("verify", "disk-expre03", 2, 40), ("verify", "ellipse-expre", 1, 32),
             ("verify", "perturbed-expre", 2, 24), ("distributional", "disk-expre03", 1, 24),
             ("distributional", "ellipse-expre", 2, 40),
             ("distributional", "perturbed-expre", 1, 32))

    def specs(self, round_no: int) -> list:
        rng = round_rng(self.name, self.seed, round_no)
        specs = []
        for cmd, preset, kappa, n_max in self.SLOTS:
            ns = [8 + i * (n_max - 8) // 4 for i in range(5)]
            z0 = complex(psi(PRESETS[preset]["map"],
                             rng.uniform(1.3, 1.8) * np.exp(1j * rng.uniform(0, 2 * math.pi))))
            terms = real_test_function(rng)
            cfg = {"domain": PRESETS[preset], "kappa": kappa, "N": ns,
                   "points": [[z0.real, z0.imag]], "test_function": {"terms": terms}}
            specs.append((cmd, f"{cmd} {preset} k={kappa} N<={n_max}", cfg,
                          {"kappa": kappa, "n_max": n_max, "g_l1": terms_l1(terms)}))
        return specs

    def check_artifacts(self, op: Op, out: Path) -> None:
        if op.kind == "verify":
            summary = self.load(out / "summary.json")
            self.validate(summary, self.cli.SUMMARY_SCHEMA)
            if summary["passed"] is not True:
                raise CheckFailure("wrong_value", f"verify did not pass: {summary['slopes']}")
            if not summary["oracle_gram_residual"] <= GRAM_TOL:
                raise CheckFailure("wrong_value",
                                   f"Gram residual {summary['oracle_gram_residual']:.3e}")
            rates = np.loadtxt(out / "rates.csv", delimiter=",", skiprows=1, ndmin=2)
            if not np.all(np.isfinite(rates)):
                raise CheckFailure("nonfinite", "rates.csv holds NaN or inf")
        else:
            dist = self.load(out / "distributional.json")
            self.validate(dist, self.cli.DISTRIBUTIONAL_SCHEMA)
            last = dist["rows"][-1]
            bound = (DIST_RATE_CONST * op.expect["g_l1"]
                     * op.expect["n_max"] ** -(op.expect["kappa"] + 1))
            if last["N"] != op.expect["n_max"] or not last["abs_error"] <= bound:
                raise CheckFailure("wrong_value", f"error {last['abs_error']:.3e} at N="
                                   f"{last['N']} above bound {bound:.3e}")


# ---------------------------------------------------------------------------
# eval-sweep


def circle_eval(coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """``sum_k c[K+k] zeta^k`` by Horner's scheme in ``zeta`` and ``1/zeta``."""
    K = (len(coeffs) - 1) // 2
    w = 1.0 / zeta
    neg = np.zeros_like(zeta)
    pos = np.zeros_like(zeta)
    for j in range(K, 0, -1):
        neg = (neg + coeffs[K - j]) * w
        pos = (pos + coeffs[K + j]) * zeta
    return neg + pos + coeffs[K]


def psi_prime(m, zeta):
    """``psi'(zeta)`` for the map ``cap zeta + sum_j tail[j] zeta^-j`` of a model."""
    return m.cap - sum(j * a * zeta ** (-j - 1) for j, a in enumerate(m.tail) if j >= 1)


def log_position(model, N: int, zeta: np.ndarray) -> np.ndarray:
    """``log(phi'(z) phi(z)^N e^V(z))`` at ``z = psi(zeta)`` from the model's parts."""
    return (N * np.log(zeta) + circle_eval(model.szego.v_exterior.coeffs, zeta)
            - np.log(psi_prime(model.map, zeta)))


def norm_factor(model, N: int) -> float:
    """``D_N = 1 + sum_j d_j N^-j`` from the model's norm constants."""
    return 1.0 + sum(d * float(N) ** -j for j, d in enumerate(model.norm.d, start=1))


def reference_normalized(model, N: int, zeta: np.ndarray) -> np.ndarray:
    """``kappa_N C_N phi' phi^N e^V sum_j N^-j X_j`` in the log domain.

    ``kappa_N C_N = N^(1/2) D_N`` exactly, so the overflowing ``cap^(N+1)``
    never forms.
    """
    partial = sum(float(N) ** -j * circle_eval(model.coeffs.X[j].coeffs, zeta)
                  for j in range(model.order + 1))
    return np.exp(0.5 * math.log(N) + math.log(norm_factor(model, N))
                  + log_position(model, N, zeta) + np.log(partial))


def reference_offspectral(model, a: complex, N: int, zeta: np.ndarray) -> np.ndarray:
    """``N^(1/2) rho_w phi' phi^N e^V`` with ``a = phi(w)``, in the log domain."""
    rho_w = (math.sqrt(abs(a) ** 2 - 1.0) * np.conj(a) * zeta
             / (abs(a) * (np.conj(a) * zeta - 1.0)))
    return np.exp(0.5 * math.log(N) + np.log(rho_w) + log_position(model, N, zeta))


def reference_bw_diag(model, rho: float, N: int, zeta: complex, tail: int = 400) -> float:
    """Closed-form sum of ``bw_kernel_diag``, vectorized and in another order."""
    r = abs(zeta)
    n = np.arange(0, N + 1, dtype=float)
    pos = np.sum((n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2)))
    n = -np.arange(2, tail, dtype=float)
    neg = np.sum((n + 1) * r ** (2 * n) / (1.0 - rho ** (2 * n + 2)))
    return float((r ** -2 / math.log(1.0 / rho ** 2) + pos + neg)
                 / abs(psi_prime(model.map, zeta)) ** 2)


def point_tol(model, N: int, z, zeta) -> np.ndarray:
    """Relative tolerance of a value carrying ``phi(z)^N`` (or ``|phi|^(2n)``, n <= N).

    ``map_forward`` stops when ``|psi(zeta) - z| <= NEWTON_TOL max(1, |z|)``,
    so ``zeta`` is off by up to that over ``|psi'(zeta)|``, and ``zeta^N`` by
    ``N`` times the relative error of ``zeta``.
    """
    zeta = np.asarray(zeta)
    newton = (NEWTON_TOL * np.maximum(1.0, np.abs(z))
              / (np.abs(psi_prime(model.map, zeta)) * np.abs(zeta)))
    return np.maximum(EVAL_REL_TOL, NEWTON_GAIN * N * newton)


def relative_check(got, want, what: str, tol) -> None:
    """``got`` within ``tol`` (per point) of ``want``, relative to ``|want|``."""
    got = np.asarray(got)
    if not np.all(np.isfinite(got)):
        raise CheckFailure("nonfinite", f"{what}: {int(np.sum(~np.isfinite(got)))} values")
    err = np.abs(got - want) / np.abs(want)
    tol = np.broadcast_to(tol, err.shape)
    i = int(np.argmax(err / tol))
    if not err[i] <= tol[i]:
        raise CheckFailure("wrong_value", f"{what}: relative error {err[i]:.3e} above "
                                          f"tolerance {tol[i]:.3e}")


def zero_part(terms: list) -> dict:
    """Circle-vanishing part ``g_0`` of ``g = sum c_mn z^m conj(z)^n`` as ``{(m, n): c}``.

    On the circle ``z^m conj(z)^n = z^(m-n)``; the part of ``g`` that is
    holomorphic (``k = m - n <= 0``, lifted to ``z^k``) or conjugate-holomorphic
    (``k >= 1``, lifted to ``conj(z)^-k``) outside the circle is taken away.
    """
    g0: dict = {}
    for m, n, re_, im_ in terms:
        c = complex(re_, im_)
        k = m - n
        for key, v in (((m, n), c), ((k, 0) if k <= 0 else (0, -k), -c)):
            g0[key] = g0.get(key, 0.0) + v
    return g0


def diagonal_moments(B: np.ndarray, order: int, absolute: bool = False) -> np.ndarray:
    """``T[mu, 2P + d] = sum_{m-n=d} f^mu B[m, n]`` with ``f = -(m+n)/2 - 1``
    (``|f|`` if ``absolute``) for the centred grid ``B[P+m, P+n]``."""
    P = (B.shape[0] - 1) // 2
    m = np.arange(-P, P + 1)
    d = (m[:, None] - m[None, :] + 2 * P).ravel()
    f = (-(m[:, None] + m[None, :]) / 2.0 - 1.0).ravel()
    f = np.abs(f) if absolute else f
    b = B.ravel()
    out = np.zeros((order + 1, 4 * P + 1), dtype=np.complex128)
    for mu in range(order + 1):
        w = f ** mu * b
        out[mu] = np.bincount(d, w.real, 4 * P + 1) + 1j * np.bincount(d, w.imag, 4 * P + 1)
    return out


def correction_moments(model) -> dict:
    """Diagonal moments of ``X_j conj(X_k) Omega`` for ``j + k < order``, each as
    ``(moments, moments of the absolute values)``.

    The product is formed without truncation, as two 1-D convolutions: ``X_j``
    along the ``z`` axis and ``conj(X_k)`` along the ``conj(z)`` axis.
    """
    omega, X = model.szego.omega_flat.coeffs, model.coeffs.X
    out = {}
    for j in range(model.order):
        for k in range(model.order - j):
            pair = []
            for absolute, f in ((False, lambda a: a), (True, np.abs)):
                B = np.apply_along_axis(np.convolve, 0, f(omega), f(X[j].coeffs))
                B = np.apply_along_axis(np.convolve, 1, B, f(np.conj(X[k].coeffs)))
                pair.append(diagonal_moments(B, model.order, absolute))
            out[j, k] = tuple(pair)
    return out


def reference_distributional(model, moments: dict, terms: list, N: int):
    """Boundary expansion of ``int g |P_N|^2 omega dA`` from the model's parts.

    Returns ``(mean, correction, bound)``: the circle mean of ``g``; the
    correction ``D_N^2 sum_{nu>=1, nu+j+k<=order} N^-(nu+j+k) <u_nu, W_nu[X_j
    conj(X_k)]>`` with ``u_nu = (-(r d/dr)/2)^nu g_0`` on the circle and
    ``W_nu`` the sum over ``mu <= order - nu`` of ``N^-mu C(nu+mu, nu)
    (-(r d/dr)/2 - 1)^mu (. Omega)`` on the circle; and the same sum taken
    over absolute values, which bounds its rounding error.
    """
    order = model.order
    mean = sum(complex(t[2], t[3]) for t in terms if t[0] == t[1])
    g0 = zero_part(terms)
    corr, bound = 0.0, 0.0
    for nu in range(1, order + 1):
        u, u_abs = {}, {}
        for (m, n), c in g0.items():
            f = -(m + n) / 2.0
            u[m - n] = u.get(m - n, 0.0) + f ** nu * c
            u_abs[m - n] = u_abs.get(m - n, 0.0) + abs(f ** nu * c)
        w = np.array([math.comb(nu + mu, nu) * float(N) ** -mu
                      for mu in range(order - nu + 1)])
        for j in range(order - nu + 1):
            for k in range(order - nu - j + 1):
                T, T_abs = moments[j, k]
                mid = (T.shape[1] - 1) // 2
                scale = float(N) ** -(nu + j + k)
                for d, c in u.items():
                    corr += scale * c * (w @ T[:order - nu + 1, mid - d])
                    bound += scale * u_abs[d] * (w @ T_abs[:order - nu + 1, mid - d].real)
    d2 = norm_factor(model, N) ** 2
    return mean, d2 * corr, d2 * bound


class EvalSweep:
    """Scattered-point requests against five prebuilt kappa=3 models."""

    name = "eval-sweep"
    ROUNDS = 4
    KAPPA = 3
    BATCH = 256
    N_RANGE = (8.0, 1.0e4)
    # requests per model in one round: 70% eval, 20% distributional, 10% kernels
    MIX = (("eval", 14), ("distributional", 4), ("offspectral", 1), ("bw_diag", 1))
    TEST_FUNCTIONS = 4
    BW_RHO = 0.5

    def __init__(self, seed: int):
        import planorth
        self.po = planorth
        self.typed_error = planorth.PlanorthError
        self.seed = seed
        rng = round_rng(self.name, seed, -1)
        self.models, self.splits, self.moments = {}, {}, {}
        for name, cfg in PRESETS.items():
            m, wd, rho, M, _K = planorth.load_domain_config(cfg)
            model = planorth.build_model(m, wd, self.KAPPA, bidegree=M, inner_radius=rho)
            self.models[name] = model
            pool = []
            for _ in range(self.TEST_FUNCTIONS):
                terms = real_test_function(rng)
                g = planorth.annulus_from_terms(
                    {(t[0], t[1]): complex(t[2], t[3]) for t in terms}, M, rho)
                pool.append((planorth.split_test_function(g), terms))
            self.splits[name] = pool

    def degrees(self, rng: random.Random, n: int) -> list:
        lo, hi = (math.log(x) for x in self.N_RANGE)
        return [int(round(math.exp(lo + u * (hi - lo)))) for u in latin(rng, n)]

    def boundary_points(self, gen, name: str, N: int, n: int):
        """Points with ``|phi(z)| = 1 + t log(N)/N``, ``t`` uniform in [-1, 2]."""
        t = gen.uniform(-1.0, 2.0, n)
        zeta = (1.0 + t * math.log(N) / N) * np.exp(1j * gen.uniform(0, 2 * math.pi, n))
        return psi(PRESETS[name]["map"], zeta), zeta

    def make_round(self, round_no: int) -> list:
        rng = round_rng(self.name, self.seed, round_no)
        gen = np.random.default_rng([self.seed, round_no, 7])
        ops = []
        for name in PRESETS:
            for kind, count in self.MIX:
                for N in self.degrees(rng, count):
                    if kind == "eval":
                        z, zeta = self.boundary_points(gen, name, N, self.BATCH)
                        ops.append(Op(kind, name, {"N": N, "z": z}, {"zeta": zeta}))
                    elif kind == "distributional":
                        split, terms = self.splits[name][rng.randrange(self.TEST_FUNCTIONS)]
                        ops.append(Op(kind, name, {"N": N, "split": split}, {"terms": terms}))
                    elif kind == "offspectral":
                        a = rng.uniform(1.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                        w = complex(psi(PRESETS[name]["map"], a))
                        z, zeta = self.boundary_points(gen, name, N, self.BATCH)
                        ops.append(Op(kind, name, {"N": N, "w": w, "z": z},
                                      {"a": complex(a), "zeta": zeta}))
                    else:
                        z, zeta = self.boundary_points(gen, name, N, 1)
                        ops.append(Op(kind, name, {"N": N, "z": complex(z[0])},
                                      {"zeta": complex(zeta[0])}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        po, model, inp = self.po, self.models[op.label], op.inputs
        if op.kind == "eval":
            return po.normalized_eval(model, inp["N"], inp["z"])
        if op.kind == "distributional":
            return po.distributional_expectation(model, inp["split"], inp["N"])
        if op.kind == "offspectral":
            point = po.off_spectral_point(model.map, inp["w"])
            return po.offspectral_leading(model, point, inp["N"], inp["z"])
        return po.bw_kernel_diag(self.BW_RHO, model.map, inp["N"], inp["z"])

    def check(self, op: Op, out) -> None:
        N = op.inputs["N"]
        if "reference" not in op.expect:
            op.expect["reference"] = self.reference(op)
        ref = op.expect["reference"]
        if op.kind == "distributional":
            check_distributional(out, N, *ref)
        elif op.kind == "bw_diag":
            relative_check([out], ref[0], f"bw_kernel_diag N={N}", ref[1])
        else:
            name = "normalized_eval" if op.kind == "eval" else "offspectral_leading"
            relative_check(out, ref[0], f"{name} N={N}", ref[1])

    def reference(self, op: Op):
        """The benchmark's own value of an operation (and its tolerance), computed
        once per operation and kept for the repeated passes."""
        model, N = self.models[op.label], op.inputs["N"]
        if op.kind == "distributional":
            if op.label not in self.moments:
                self.moments[op.label] = correction_moments(model)
            return reference_distributional(model, self.moments[op.label],
                                            op.expect["terms"], N)
        zeta = op.expect["zeta"]
        tol = point_tol(model, N, op.inputs["z"], zeta)
        if op.kind == "eval":
            return reference_normalized(model, N, zeta), tol
        if op.kind == "offspectral":
            return reference_offspectral(model, op.expect["a"], N, zeta), tol
        return reference_bw_diag(model, self.BW_RHO, N, zeta), tol

    @staticmethod
    def bytes_written(op: Op) -> int:
        return 0

    def cleanup(self, op: Op) -> None:
        pass


def check_distributional(value, N: int, mean: complex, corr: complex, bound: float) -> None:
    """``E_N - mean`` against the recomputed correction, within ``DIST_REL_TOL``
    of its absolute-value bound (plus the rounding of adding the mean)."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CheckFailure("nonfinite", f"distributional_expectation N={N}: {value}")
    err = abs(value - mean - corr)
    if not err <= DIST_REL_TOL * bound + 4 * np.finfo(float).eps * abs(mean):
        raise CheckFailure("wrong_value", f"distributional_expectation N={N}: correction "
                                          f"{value - mean:.6e}, recomputed {corr:.6e}")


def make_workload(name: str, seed: int, workdir: Path, reference: dict):
    if name == "expand-sweep":
        return ExpandSweep(seed, workdir, reference)
    if name == "oracle-check":
        return OracleCheck(seed, workdir)
    if name == "eval-sweep":
        return EvalSweep(seed)
    raise ValueError(f"unknown workload {name!r}")
