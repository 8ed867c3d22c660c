"""Batch command-line front end: config in, JSON/CSV/plot-data artifacts out.

Commands: ``expand``, ``eval``, ``oracle``, ``verify``, ``distributional``,
``kernel``.  Exit codes: 0 success, 2 config error, 3 numerical-validation
failure, 4 out-of-validity request.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .distributional import TestFunctionSplit, _expectations, split_terms
from .errors import (ConfigError, NonFiniteError, OffSpectralError, OutOfValidityError,
                     PlanorthError, stage)
from .expansion import (_require_degree, build_model, check_valid, leading_coeff, monic_at,
                        monic_orders_at, normalized_at, validity_radius)
from .geometry import (load_domain_config, map_forward_many, parse_integer, parse_list,
                       parse_number, parse_object, parse_pair)
from .hierarchy import hierarchy_residuals
from .kernels import _bw_kernel_diag_at, _offspectral_at, off_spectral_point, outer_rho
from .oracle import CUTOFF, berezin_expectations, boundary_onps, l2_discrepancies

MAX_ORDER = 8
FLOOR_PER_DEGREE = 8 * np.finfo(float).eps   # verify: a degree-N error <= N times this is roundoff
MODE_FLOOR = 1e-15    # model.json lists the modes whose coefficient exceeds this in modulus

MODEL_SCHEMA = {
    "type": "object",
    "required": ["schema", "kappa", "map", "szego", "corrections", "norm", "diagnostics"],
    "properties": {
        "schema": {"const": "planorth/model-v1"},
        "kappa": {"type": "integer", "minimum": 0},
        "map": {"type": "object",
                "required": ["cap", "tail", "univalence_margin"],
                "properties": {"cap": {"type": "number", "exclusiveMinimum": 0}}},
        "szego": {"type": "object",
                  "required": ["v_exterior", "v_infinity", "circle_residual"]},
        "corrections": {"type": "array",
                        "items": {"type": "object", "required": ["order", "modes", "coeffs"]}},
        "norm": {"type": "object", "required": ["d", "c"]},
        "diagnostics": {"type": "object",
                        "required": ["omega_circle_residual", "hierarchy_residuals"]},
    },
}

EVAL_SCHEMA = {
    "type": "object",
    "required": ["schema", "kappa", "results"],
    "properties": {
        "schema": {"const": "planorth/eval-v1"},
        "results": {"type": "array",
                    "items": {"type": "object",
                              "required": ["N", "point", "valid", "monic", "normalized"]}},
    },
}

ORACLE_SCHEMA = {
    "type": "object",
    "required": ["schema", "degree", "kappa", "gram_residual", "rule", "coefficients"],
    "properties": {"schema": {"const": "planorth/oracle-v1"},
                   "degree": {"type": "integer", "minimum": 0}},
}

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["schema", "slopes", "passed", "tolerance"],
    "properties": {"schema": {"const": "planorth/verify-summary-v1"},
                   "passed": {"type": "boolean"}, "oracle": {"type": "object"}},
}

DISTRIBUTIONAL_SCHEMA = {
    "type": "object",
    "required": ["schema", "kappa", "leading", "rows", "terms_at_max_degree"],
    "properties": {"schema": {"const": "planorth/distributional-v1"}},
}

KERNEL_SCHEMA = {
    "type": "object",
    "required": ["schema", "offspectral", "diag_bound"],
    "properties": {"schema": {"const": "planorth/kernel-v1"}},
}


def _c2l(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_object(cfg, "config")


def _experiment(cfg: dict, args) -> dict:
    if "domain" not in cfg:
        raise ConfigError("config must contain a 'domain' object (map/weight/rho/M/K)")
    kappa = parse_integer(args.kappa if args.kappa is not None else cfg.get("kappa", 2),
                          "kappa")
    if not (0 <= kappa <= MAX_ORDER):
        raise ConfigError(f"kappa must lie in [0, {MAX_ORDER}]")
    if args.n is not None:
        ns = [parse_integer(x, "degree N") for x in args.n.split(",") if x.strip()]
    else:
        ns = [parse_integer(x, "degree N") for x in parse_list(cfg.get("N", []), "N")]
    for low, high in zip(ns, ns[1:]):
        if high <= low:
            raise ConfigError(f"N list must be strictly ascending: degree {high} follows {low}")
    if ns and ns[0] < 0:
        raise ConfigError(f"degree N must be nonnegative, got {ns[0]}")
    points = [parse_pair(p, "points entry")
              for p in parse_list(cfg.get("points", []), "points")]
    tols = parse_object(cfg.get("tolerances", {}), "tolerances")
    tol = args.tol if args.tol is not None else tols.get("slope", 0.35)
    if "oracle_degree" in cfg:
        raise ConfigError("oracle_degree is no longer a config key: the boundary oracle "
                          "sizes itself from the degree; remove it")
    allow = cfg.get("allow_out_of_validity", False)
    if not isinstance(allow, bool):
        raise ConfigError(f"allow_out_of_validity must be true or false, got {allow!r}")
    return {"kappa": kappa, "N": ns, "points": points,
            "allow_out_of_validity": allow,
            "tol": parse_number(tol, "tolerances.slope")}


def _build(cfg: dict, kappa: int):
    with stage("config"):
        m, wd, rho, M, _K = load_domain_config(cfg["domain"])
        validity_constant = parse_number(cfg.get("validity_constant", 1.0), "validity_constant")
    return build_model(m, wd, kappa, bidegree=M, inner_radius=rho,
                       validity_constant=validity_constant)


def _modes(coeffs: np.ndarray, K: int) -> tuple[list, list]:
    """Modes ``k`` (``coeffs[K + k]``, ascending) whose coefficient exceeds
    ``MODE_FLOOR`` in modulus, and those coefficients as ``[re, im]`` pairs."""
    idx = np.flatnonzero(np.abs(coeffs) > MODE_FLOOR)
    return (idx - K).tolist(), [_c2l(z) for z in coeffs[idx]]


def _model_payload(model, cfg: dict) -> dict:
    X = model.coeffs.stack
    corrections = []
    for j in range(1, model.order + 1):
        modes, coeffs = _modes(X[j], (X.shape[1] - 1) // 2)
        corrections.append({"order": j, "modes": modes, "coeffs": coeffs})
    v = model.szego.v_exterior
    vmodes, vcoeffs = _modes(v.coeffs[:v.bandwidth + 1], v.bandwidth)
    return {
        "schema": "planorth/model-v1",
        "domain": cfg["domain"],
        "kappa": model.order,
        "map": {"cap": model.map.cap, "tail": [_c2l(a) for a in model.map.tail],
                "univalence_margin": model.map.univalence_margin},
        "szego": {"v_exterior": {"modes": vmodes, "coeffs": vcoeffs},
                  "v_infinity": model.szego.v_infinity,
                  "circle_residual": model.szego.circle_residual},
        "corrections": corrections,
        "norm": {"d": [float(x) for x in model.norm.d],
                 "c": [float(x) for x in model.norm.raw]},
        "diagnostics": {
            "omega_circle_residual": model.szego.circle_residual,
            "weight_fit_residual": model.weight.fit_residual,
            "hierarchy_residuals": hierarchy_residuals(model.coeffs, model.szego,
                                                       model.order),
        },
    }


def _write_json(outdir: Path, name: str, payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{name} would hold a non-finite number: {exc}") from exc
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w") as fh:
        fh.write(text + "\n")


def _write_csv(outdir: Path, name: str, header: list, rows: list) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_dat(outdir: Path, name: str, header: list, rows: list) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w") as fh:
        fh.write("# " + " ".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(" ".join(f"{x:.16g}" if isinstance(x, float) else str(x) for x in row) + "\n")


def cmd_expand(cfg: dict, exp: dict, outdir: Path) -> int:
    model = _build(cfg, exp["kappa"])
    _write_json(outdir, "model.json", _model_payload(model, cfg))
    print(f"expand: wrote {outdir / 'model.json'} "
          f"(kappa={model.order}, circle residual {model.szego.circle_residual:.2e})")
    return 0


def cmd_eval(cfg: dict, exp: dict, outdir: Path) -> int:
    if not exp["points"]:
        raise ConfigError("eval needs evaluation points")
    _require_degree(min(exp["N"]))
    model = _build(cfg, exp["kappa"])
    results = []
    rows = []
    zeta, ok = map_forward_many(model.map, np.array(exp["points"], dtype=complex))
    for N in exp["N"]:
        valid = ok & (np.abs(zeta) >= validity_radius(N, model.validity_constant))
        if not (valid.all() or exp["allow_out_of_validity"]):
            raise OutOfValidityError(
                f"point {exp['points'][np.argmin(valid)]} outside the validity region at "
                f"degree {N} (set allow_out_of_validity to flag instead)")
        if valid.any():   # every valid point at once, read in the order of the points
            vals = zip(monic_at(model, N, zeta[valid]), normalized_at(model, N, zeta[valid]))
        for z, v in zip(exp["points"], valid):
            if v:
                mv, nv = map(complex, next(vals))
                results.append({"N": N, "point": _c2l(z), "valid": True,
                                "monic": _c2l(mv), "normalized": _c2l(nv)})
                rows.append([N, z.real, z.imag, 1, mv.real, mv.imag, nv.real, nv.imag])
            else:
                results.append({"N": N, "point": _c2l(z), "valid": False,
                                "monic": None, "normalized": None})
                rows.append([N, z.real, z.imag, 0, "", "", "", ""])
    _write_json(outdir, "eval.json", {"schema": "planorth/eval-v1",
                                      "kappa": exp["kappa"], "results": results})
    _write_csv(outdir, "eval.csv",
               ["N", "re_z", "im_z", "valid", "re_monic", "im_monic",
                "re_normalized", "im_normalized"], rows)
    print(f"eval: wrote {outdir / 'eval.json'} ({len(results)} evaluations)")
    return 0


def _collar_oracle(model, N_max: int):
    if not model.inner_radius + CUTOFF[0] < 1.0:   # refused before the oracle is built
        raise ConfigError(f"rho = {model.inner_radius} leaves no room for the collar's cutoff, "
                          f"which rises from rho + {CUTOFF[0]}: rho must be below {1 - CUTOFF[0]}")
    with stage("oracle"):
        return boundary_onps(model.map, model.weight.holo_poly, N_max)


def cmd_oracle(cfg: dict, exp: dict, outdir: Path) -> int:
    # the oracle reads the map and P alone: no expansion model is built
    with stage("config"):
        m, wd, _rho, _M, _K = load_domain_config(cfg["domain"])
    N_max = max(exp["N"])
    with stage("oracle"):
        polys = boundary_onps(m, wd.holo_poly, N_max)
    kappa = polys.kappa
    payload = {
        "schema": "planorth/oracle-v1",
        "degree": N_max,
        "kappa": exp["kappa"],
        "gram_residual": polys.gram_residual,
        "leading_coeffs": [float(k) for k in kappa],
        "coefficients": [[_c2l(polys.coeff_table[i, n]) for i in range(n + 1)]
                         for n in range(N_max + 1)],
        "rule": polys.health,
    }
    _write_json(outdir, "oracle.json", payload)
    _write_csv(outdir, "gram_residuals.csv", ["degree", "kappa_n", "gram_residual"],
               [[n, kappa[n], float(polys.gram_residuals[n])] for n in range(N_max + 1)])
    print(f"oracle: wrote {outdir / 'oracle.json'} "
          f"(degree {N_max}, gram residual {polys.gram_residual:.2e})")
    return 0


def cmd_verify(cfg: dict, exp: dict, outdir: Path) -> int:
    if len(exp["points"]) != 1:
        raise ConfigError(f"verify checks one point: points has {len(exp['points'])} entries")
    _require_degree(min(exp["N"]))
    model = _build(cfg, exp["kappa"])
    z0 = exp["points"][0]
    zeta, ok = map_forward_many(model.map, np.array([z0]))   # the one mapped point
    for N in exp["N"]:   # the request is checked before the oracle is built
        check_valid(model, N, zeta, ok)
    N_max = max(exp["N"])
    polys = _collar_oracle(model, N_max)
    p0 = polys.evaluate(np.array([z0]))[0]

    pairs = [(N, kappa) for kappa in range(exp["kappa"] + 1) for N in exp["N"]]
    with stage("oracle-collar"):
        l2s = l2_discrepancies(model, polys, pairs)
    # every degree's and order's pointwise and leading-coefficient errors at once:
    # row d of each table is degree exp["N"][d], column k order k
    degrees = np.array(exp["N"])
    monic = monic_orders_at(model, degrees, zeta, exp["kappa"])[..., 0]
    kappa_n = polys.kappa[degrees][:, None]
    # X_0 = 1: the order-0 value is C_N times the positioning factor, the error's scale
    perr = np.abs(p0[degrees][:, None] / kappa_n - monic) / np.abs(monic[:, :1])
    krel = np.abs(np.array([[leading_coeff(model, N, kappa) for kappa in range(exp["kappa"] + 1)]
                            for N in exp["N"]]) / kappa_n - 1.0)
    l2s = l2s.reshape(exp["kappa"] + 1, len(degrees))   # pairs run over N within kappa
    rows = [[N, kappa, float(perr[d, kappa]), float(l2s[kappa, d]), float(krel[d, kappa])]
            for kappa in range(exp["kappa"] + 1) for d, N in enumerate(exp["N"])]

    slopes = {str(kappa): _order_gate([(r[0], r[2]) for r in rows if r[1] == kappa],
                                      -(kappa + 1), exp["tol"])
              for kappa in range(exp["kappa"] + 1)}
    passed = all(entry["pass"] for entry in slopes.values())
    summary = {"schema": "planorth/verify-summary-v1", "slopes": slopes,
               "passed": passed, "tolerance": exp["tol"],
               "pointwise_floor_per_degree": FLOOR_PER_DEGREE,
               "oracle_gram_residual": polys.gram_residual, "oracle": polys.health}
    _write_csv(outdir, "rates.csv",
               ["N", "kappa", "pointwise_error", "l2_discrepancy", "leading_coeff_rel_error"],
               rows)
    _write_dat(outdir, "rates.dat",
               ["N", "kappa", "pointwise_error", "l2_discrepancy", "leading_coeff_rel_error"],
               rows)
    _write_json(outdir, "summary.json", summary)
    print(f"verify: wrote {outdir / 'summary.json'} (passed={passed})")
    return 0 if passed else 3


def _order_gate(errors: list, target: int, tol: float) -> dict:
    """``summary.json``'s entry for one order from its ``(N, pointwise error)``
    rows, in ascending ``N``.  An error at most ``FLOOR_PER_DEGREE * N`` (the
    ``N eps`` condition of ``zeta^N``) is roundoff: that degree agrees and is
    no slope sample.  With no degree above the floor the order is exact.  Else
    the degrees above it must be the smallest ones, the error falling to the
    floor and staying there: one that leaves the floor again fails the order.
    Their slope passes at most ``target + tol``; a single one fits none and
    passes only as the smallest of several degrees."""
    above = [(N, e) for N, e in errors if e > FLOOR_PER_DEGREE * N]
    if not above:   # the slope of noise means nothing
        return {"slope": None, "exact": True, "target": target, "pass": True,
                "steeper_than_polynomial": False}
    slope = float(np.polyfit(*np.log(above).T, 1)[0]) if len(above) > 1 else None
    ok = above == errors[:len(above)] and (len(errors) > 1 if slope is None
                                           else slope <= target + tol)
    return {"slope": slope, "target": target, "pass": bool(ok),
            "steeper_than_polynomial": bool(ok and slope is not None and slope < target - tol)}


def _test_function(cfg: dict) -> TestFunctionSplit:
    """The config's test function as its terms ``(m - n, m + n, c)``: any
    integers ``m, n`` below ``2^62`` in modulus (so ``m + n`` fits an int64),
    each pair once."""
    tf = parse_object(cfg.get("test_function", {}), "test_function")
    if "terms" not in tf:
        raise ConfigError("distributional needs test_function.terms = [[m, n, re, im], ...]")
    terms = {}
    for row in parse_list(tf["terms"], "test_function.terms"):
        if not isinstance(row, list) or len(row) != 4:
            raise ConfigError(f"test_function.terms rows are [m, n, re, im], got {row!r}")
        mn = parse_integer(row[0], "term m"), parse_integer(row[1], "term n")
        if mn in terms:
            raise ConfigError(f"test_function.terms repeats the term (m, n) = {mn}")
        if max(map(abs, mn)) >= 2 ** 62:
            raise ConfigError(f"test_function.terms index (m, n) = {mn} is not below 2^62")
        terms[mn] = parse_pair(row[2:], "term")
    return split_terms(terms)


def cmd_distributional(cfg: dict, exp: dict, outdir: Path) -> int:
    _require_degree(min(exp["N"]))   # the request is checked before the model is built
    split = _test_function(cfg)
    model = _build(cfg, exp["kappa"])
    # the rows and the term table at max(N), the last degree, from one table product
    vals, index, values = _expectations(model, split, exp["N"], exp["kappa"])
    N_max = max(exp["N"])
    polys = _collar_oracle(model, N_max)
    with stage("oracle-collar"):
        ovs = berezin_expectations(model, polys, split.terms, exp["N"])
    rows = []
    for N, val, ov in zip(exp["N"], vals, ovs):
        val, ov = complex(val), complex(ov)
        rows.append([N, val.real, val.imag, ov.real, ov.imag, abs(val - ov)])
    term_table = [{"nu": idx[0], "j": idx[1], "k": idx[2], "value": _c2l(v)}
                  for idx, v in zip(index, values[-1].tolist())]
    payload = {
        "schema": "planorth/distributional-v1",
        "kappa": exp["kappa"],
        "leading": {"plus_infinity": _c2l(split.plus_infinity)},
        "terms_at_max_degree": term_table,
        "rows": [{"N": int(r[0]), "expansion": [r[1], r[2]],
                  "oracle": [r[3], r[4]], "abs_error": r[5]} for r in rows],
    }
    _write_json(outdir, "distributional.json", payload)
    _write_csv(outdir, "distributional_rates.csv",
               ["N", "re_expansion", "im_expansion", "re_oracle", "im_oracle", "abs_error"],
               rows)
    print(f"distributional: wrote {outdir / 'distributional.json'}")
    return 0


def cmd_kernel(cfg: dict, exp: dict, outdir: Path) -> int:
    kc = parse_object(cfg.get("kernel", {}), "kernel")
    if "w" not in kc or "z" not in kc:
        raise ConfigError("kernel needs kernel.w and kernel.z points")
    _require_degree(min(exp["N"]))
    model = _build(cfg, exp["kappa"])
    w = parse_pair(kc["w"], "kernel.w")
    z = parse_pair(kc["z"], "kernel.z")
    rho = parse_number(kc.get("rho", 0.5), "kernel.rho")
    rho1 = parse_number(kc.get("rho1", 0.7), "kernel.rho1")
    margin = model.map.univalence_margin
    if not (0.0 < rho < rho1 < 1.0 and rho1 > margin):
        raise ConfigError(f"kernel band needs 0 < kernel.rho < kernel.rho1 < 1 with kernel.rho1 "
                          f"above the univalence margin {margin:.4g}, got rho = {rho}, "
                          f"rho1 = {rho1}")
    pt = off_spectral_point(model.map, w)
    zeta, ok = map_forward_many(model.map, np.array([z]))   # refused before the oracle is built
    for N in exp["N"]:
        check_valid(model, N, zeta, ok)
    outer = outer_rho(pt, zeta)
    kforms = [abs(complex(_offspectral_at(model, N, zeta, outer)[0])) for N in exp["N"]]
    N_max = max(exp["N"])
    with stage("oracle"):
        polys = boundary_onps(model.map, model.weight.holo_poly, N_max)
    p = polys.evaluate(np.array([z, w]))   # P_0 .. P_Nmax at z and w: K_N(., w) for every N
    kzw, kww = np.cumsum(p * np.conj(p[1]), axis=1)
    off_rows = []
    for N, kform in zip(exp["N"], kforms):
        knum = abs(kzw[N]) / math.sqrt(kww[N].real)
        off_rows.append([N, knum, kform, abs(knum / kform - 1.0)])
    radii = np.linspace(rho1, 1.0, 17)   # the band psi(radii e^0.37i), read at its preimages
    diags = _bw_kernel_diag_at(rho, exp["N"], radii, model.map.psi_prime(radii * np.exp(0.37j)))
    diag_rows = []
    for N, diag in zip(exp["N"], diags):
        sup = float(np.max(diag))
        diag_rows.append([N, sup, sup / N ** 2])
    payload = {
        "schema": "planorth/kernel-v1",
        "offspectral": [{"N": int(r[0]), "oracle_modulus": r[1], "formula_modulus": r[2],
                         "ratio_error": r[3]} for r in off_rows],
        "diag_bound": [{"N": int(r[0]), "sup": r[1], "sup_over_N2": r[2]} for r in diag_rows],
        "w": _c2l(w), "z": _c2l(z), "rho": rho, "rho1": rho1,
    }
    _write_json(outdir, "kernel.json", payload)
    _write_csv(outdir, "kernel.csv", ["N", "oracle_modulus", "formula_modulus", "ratio_error"],
               off_rows)
    print(f"kernel: wrote {outdir / 'kernel.json'}")
    return 0


_COMMANDS = {
    "expand": cmd_expand,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "distributional": cmd_distributional,
    "kernel": cmd_kernel,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(prog="planorth",
                                description="Planar orthogonal polynomial expansions")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None,
                   help="output directory (default: config 'out' field, else ./out)")
    p.add_argument("--kappa", type=int, default=None, help="expansion order override")
    p.add_argument("--n", default=None, help="comma-separated degree list override")
    p.add_argument("--tol", type=float, default=None, help="verification tolerance")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        exp = _experiment(cfg, args)
        out = args.out if args.out is not None else cfg.get("out", "out")
        if not isinstance(out, str):
            raise ConfigError(f"out must be a directory path string, got {out!r}")
        if not exp["N"] and args.command != "expand":
            raise ConfigError(f"{args.command} needs a nonempty N list")
        return _COMMANDS[args.command](cfg, exp, Path(out))
    except ConfigError as exc:
        print(f"config error [{args.command}]: {exc}", file=sys.stderr)
        return 2
    except (OutOfValidityError, OffSpectralError) as exc:
        print(f"out-of-validity request [{args.command}]: {exc}", file=sys.stderr)
        return 4
    except PlanorthError as exc:
        print(f"numerical validation failure [{args.command}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
