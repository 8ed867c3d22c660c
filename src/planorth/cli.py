"""Batch command-line front end: config in, JSON/CSV/plot-data artifacts out.

Commands: ``expand``, ``eval``, ``oracle``, ``verify``, ``distributional``,
``kernel``.  Exit codes: 0 success, 2 config error, 3 numerical-validation
failure, 4 out-of-validity request.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .distributional import (distributional_expectation, distributional_terms,
                             split_test_function)
from .errors import (ConfigError, NonFiniteError, OffSpectralError, OutOfValidityError,
                     PlanorthError, stage)
from .expansion import (build_model, leading_coeff, monic_at, monic_eval, monic_prefactor,
                        normalized_at, positioning_factor, validity_radius)
from .geometry import load_domain_config, map_forward_many
from .hierarchy import hierarchy_residual
from .kernels import bw_kernel_diag, off_spectral_point, offspectral_leading
from .oracle import (berezin_expectations, build_quadrature, l2_discrepancies, oracle_kernel,
                     oracle_onps)
from .series import annulus_from_terms

MAX_ORDER = 8

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
                   "passed": {"type": "boolean"}},
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
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _number(value, what: str) -> float:
    """A finite JSON number or command-line string as a float."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or not math.isfinite(x):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return x


def _integer(value, what: str) -> int:
    """An integral JSON number or command-line string as an int."""
    x = _number(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(x)


def _pair(value, what: str) -> complex:
    """A JSON ``[re, im]`` pair as a complex number."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be an [re, im] pair, got {value!r}")
    return complex(_number(value[0], what), _number(value[1], what))


def _experiment(cfg: dict, args) -> dict:
    if "domain" not in cfg:
        raise ConfigError("config must contain a 'domain' object (map/weight/rho/M/K)")
    kappa = _integer(args.kappa if args.kappa is not None else cfg.get("kappa", 2), "kappa")
    if not (0 <= kappa <= MAX_ORDER):
        raise ConfigError(f"kappa must lie in [0, {MAX_ORDER}]")
    if args.n is not None:
        ns = [_integer(x, "degree N") for x in args.n.split(",") if x.strip()]
    else:
        ns = [_integer(x, "degree N") for x in cfg.get("N", [])]
    if ns != sorted(ns):
        raise ConfigError("N list must be sorted ascending")
    points = [_pair(p, "points entry") for p in cfg.get("points", [])]
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be an object, e.g. {\"slope\": 0.35}")
    tol = args.tol if args.tol is not None else tols.get("slope", 0.35)
    degree = cfg.get("oracle_degree")
    return {"kappa": kappa, "N": ns, "points": points,
            "oracle_degree": None if degree is None else _integer(degree, "oracle_degree"),
            "allow_out_of_validity": bool(cfg.get("allow_out_of_validity", False)),
            "tol": _number(tol, "tolerances.slope")}


def _build(cfg: dict, kappa: int):
    with stage("config"):
        m, wd, rho, M, _K = load_domain_config(cfg["domain"])
        validity_constant = _number(cfg.get("validity_constant", 1.0), "validity_constant")
    return build_model(m, wd, kappa, bidegree=M, inner_radius=rho,
                       validity_constant=validity_constant)


def _model_payload(model, cfg: dict) -> dict:
    corrections = []
    for j in range(1, model.order + 1):
        X = model.coeffs.X[j]
        modes = [k for k in range(-X.bandwidth, X.bandwidth + 1) if abs(X.coeff(k)) > 1e-15]
        corrections.append({"order": j, "modes": modes,
                            "coeffs": [_c2l(X.coeff(k)) for k in modes]})
    v = model.szego.v_exterior
    vmodes = [k for k in range(-v.bandwidth, 1) if abs(v.coeff(k)) > 1e-15]
    return {
        "schema": "planorth/model-v1",
        "domain": cfg["domain"],
        "kappa": model.order,
        "map": {"cap": model.map.cap, "tail": [_c2l(a) for a in model.map.tail],
                "univalence_margin": model.map.univalence_margin},
        "szego": {"v_exterior": {"modes": vmodes, "coeffs": [_c2l(v.coeff(k)) for k in vmodes]},
                  "v_infinity": model.szego.v_infinity,
                  "circle_residual": model.szego.circle_residual},
        "corrections": corrections,
        "norm": {"d": [float(x) for x in model.norm.d],
                 "c": [float(x) for x in model.norm.raw]},
        "diagnostics": {
            "omega_circle_residual": model.szego.circle_residual,
            "weight_fit_residual": model.weight.fit_residual,
            "hierarchy_residuals": [hierarchy_residual(model.coeffs, model.szego, p)
                                    for p in range(1, model.order + 1)],
        },
    }


def _write_json(outdir: Path, name: str, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
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
    if not exp["N"]:
        raise ConfigError("eval needs a nonempty N list")
    if not exp["points"]:
        raise ConfigError("eval needs evaluation points")
    model = _build(cfg, exp["kappa"])
    results = []
    rows = []
    zeta, ok = map_forward_many(model.map, np.array(exp["points"], dtype=complex))
    for N in exp["N"]:
        for z, zz, k in zip(exp["points"], zeta, ok):
            valid = bool(k and abs(zz) >= validity_radius(N, model.validity_constant))
            if not valid and not exp["allow_out_of_validity"]:
                raise OutOfValidityError(
                    f"point {z} outside the validity region at degree {N} "
                    "(set allow_out_of_validity to flag instead)")
            if valid:
                mv = complex(monic_at(model, N, zz))
                nv = complex(normalized_at(model, N, zz))
                if not (np.isfinite(mv) and np.isfinite(nv)):
                    raise NonFiniteError(f"eval at N={N}, point {z}: monic {mv}, normalized {nv}")
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


def _oracle_for(cfg: dict, exp: dict, model, N_max: int):
    with stage("oracle"):
        degree = exp["oracle_degree"] or (2 * N_max + 8)
        rule = build_quadrature(model.map, model.weight, degree=degree)
        return rule, oracle_onps(rule, N_max)


def cmd_oracle(cfg: dict, exp: dict, outdir: Path) -> int:
    if not exp["N"]:
        raise ConfigError("oracle needs a nonempty N list")
    model = _build(cfg, exp["kappa"])
    N_max = max(exp["N"])
    rule, polys = _oracle_for(cfg, exp, model, N_max)
    payload = {
        "schema": "planorth/oracle-v1",
        "degree": N_max,
        "kappa": exp["kappa"],
        "gram_residual": polys.gram_residual,
        "leading_coeffs": [float(k) for k in polys.kappa],
        "coefficients": [[_c2l(polys.coeff_table[i, n]) for i in range(n + 1)]
                         for n in range(N_max + 1)],
        "rule": {"declared_accuracy": rule.declared_accuracy, **rule.meta},
    }
    _write_json(outdir, "oracle.json", payload)
    _write_csv(outdir, "gram_residuals.csv", ["degree", "kappa_n", "gram_residual"],
               [[n, polys.kappa[n], float(polys.gram_residuals[n])] for n in range(N_max + 1)])
    print(f"oracle: wrote {outdir / 'oracle.json'} "
          f"(degree {N_max}, gram residual {polys.gram_residual:.2e})")
    return 0


def cmd_verify(cfg: dict, exp: dict, outdir: Path) -> int:
    if not exp["N"]:
        raise ConfigError("verify needs a nonempty N list")
    if not exp["points"]:
        raise ConfigError("verify needs at least one evaluation point")
    model = _build(cfg, exp["kappa"])
    z0 = exp["points"][0]
    N_max = max(exp["N"])
    rule, polys = _oracle_for(cfg, exp, model, N_max)
    zeta0 = map_forward_many(model.map, np.array([z0]))[0][0]
    p0 = polys.evaluate(np.array([z0]))[0]

    pairs = [(N, kappa) for kappa in range(exp["kappa"] + 1) for N in exp["N"]]
    rows = []
    for (N, kappa), l2 in zip(pairs, l2_discrepancies(model, polys, rule, pairs)):
        scale = monic_prefactor(model, N) * abs(positioning_factor(model, N, zeta0))
        perr = abs(p0[N] / polys.kappa[N] - monic_eval(model, N, z0, order=kappa)) / scale
        krel = abs(leading_coeff(model, N, kappa) / polys.kappa[N] - 1.0)
        rows.append([N, kappa, perr, float(l2), krel])

    slopes = {}
    passed = True
    for kappa in range(exp["kappa"] + 1):
        sub = [(r[0], r[2]) for r in rows if r[1] == kappa]
        ns = np.array([s[0] for s in sub], dtype=float)
        es = np.maximum([s[1] for s in sub], 1e-300)
        # one degree fits no slope: null, and failed
        slope = float(np.polyfit(np.log(ns), np.log(es), 1)[0]) if len(sub) > 1 else None
        target = -(kappa + 1)
        ok = slope is not None and slope <= target + exp["tol"]
        slopes[str(kappa)] = {"slope": slope, "target": target, "pass": bool(ok),
                              "steeper_than_polynomial": bool(ok and slope < target - exp["tol"])}
        passed &= ok
    summary = {"schema": "planorth/verify-summary-v1", "slopes": slopes,
               "passed": bool(passed), "tolerance": exp["tol"],
               "oracle_gram_residual": polys.gram_residual}
    _write_csv(outdir, "rates.csv",
               ["N", "kappa", "pointwise_error", "l2_discrepancy", "leading_coeff_rel_error"],
               rows)
    _write_dat(outdir, "rates.dat",
               ["N", "kappa", "pointwise_error", "l2_discrepancy", "leading_coeff_rel_error"],
               rows)
    _write_json(outdir, "summary.json", summary)
    print(f"verify: wrote {outdir / 'summary.json'} (passed={passed})")
    return 0 if passed else 3


def _test_function(cfg: dict, model):
    tf = cfg.get("test_function")
    if not tf or "terms" not in tf:
        raise ConfigError("distributional needs test_function.terms = [[m, n, re, im], ...]")
    M = model.szego.omega_flat.bidegree
    rho = model.inner_radius
    terms = {}
    for row in tf["terms"]:
        if not isinstance(row, list) or len(row) != 4:
            raise ConfigError(f"test_function.terms rows are [m, n, re, im], got {row!r}")
        terms[_integer(row[0], "term m"), _integer(row[1], "term n")] = _pair(row[2:], "term")
    return annulus_from_terms(terms, M, rho)


def cmd_distributional(cfg: dict, exp: dict, outdir: Path) -> int:
    if not exp["N"]:
        raise ConfigError("distributional needs a nonempty N list")
    model = _build(cfg, exp["kappa"])
    g = _test_function(cfg, model)
    split = split_test_function(g)
    N_max = max(exp["N"])
    rule, polys = _oracle_for(cfg, exp, model, N_max)
    rows = []
    for N, ov in zip(exp["N"], berezin_expectations(model, polys, rule, g, exp["N"])):
        val = distributional_expectation(model, split, N, order=exp["kappa"])
        ov = complex(ov)
        rows.append([N, val.real, val.imag, ov.real, ov.imag, abs(val - ov)])
    term_table = [{"nu": idx[0], "j": idx[1], "k": idx[2], "value": _c2l(v)}
                  for idx, v in distributional_terms(model, split, max(exp["N"]),
                                                     order=exp["kappa"])]
    payload = {
        "schema": "planorth/distributional-v1",
        "kappa": exp["kappa"],
        "leading": {"plus_infinity": _c2l(split.plus_infinity),
                    "minus_infinity": _c2l(split.minus_infinity)},
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
    if not exp["N"]:
        raise ConfigError("kernel needs a nonempty N list")
    kc = cfg.get("kernel", {})
    if "w" not in kc or "z" not in kc:
        raise ConfigError("kernel needs kernel.w and kernel.z points")
    model = _build(cfg, exp["kappa"])
    w = _pair(kc["w"], "kernel.w")
    z = _pair(kc["z"], "kernel.z")
    rho = _number(kc.get("rho", 0.5), "kernel.rho")
    rho1 = _number(kc.get("rho1", 0.7), "kernel.rho1")
    pt = off_spectral_point(model.map, w)
    N_max = max(exp["N"])
    rule, polys = _oracle_for(cfg, exp, model, N_max)
    off_rows = []
    for N in exp["N"]:
        knum = abs(oracle_kernel(polys, z, w, upto=N)) / math.sqrt(
            oracle_kernel(polys, w, w, upto=N).real)
        kform = abs(offspectral_leading(model, pt, N, z))
        off_rows.append([N, knum, kform, abs(knum / kform - 1.0)])
    band = np.linspace(rho1, 1.0, 17)
    diag_rows = []
    for N in exp["N"]:
        sup = max(bw_kernel_diag(rho, model.map, N, model.map.psi(r * np.exp(0.37j)))
                  for r in band)
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


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="planorth",
                                description="Planar orthogonal polynomial expansions")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--out", default=None,
                        help="output directory (default: config 'out' field, else ./out)")
        sp.add_argument("--kappa", type=int, default=None, help="expansion order override")
        sp.add_argument("--n", default=None, help="comma-separated degree list override")
        sp.add_argument("--tol", type=float, default=None, help="verification tolerance")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        exp = _experiment(cfg, args)
        outdir = Path(args.out if args.out is not None else cfg.get("out", "out"))
        return _COMMANDS[args.command](cfg, exp, outdir)
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
