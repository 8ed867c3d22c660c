import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planorth
from planorth import cli, expansion, geometry
from planorth.errors import ConfigError, NonFiniteError
from planorth.kernels import off_spectral_point, offspectral_leading
from planorth.oracle import OraclePolynomials, boundary_onps
from planorth.presets import PRESETS, preset_config, preset_model

from conftest import LONG_TAIL

README = Path(__file__).resolve().parents[1] / "README.md"
_RING = 1.05 * np.exp(2j * np.pi * np.arange(24) / 24)
SAMPLED = {"kind": "custom-samples", "points": [[z.real, z.imag] for z in _RING],
           "values": list(np.exp(0.6 * _RING.real)), "degree": 2}
KERNEL = {"w": [2.0, 0.0], "z": [2.5, 0.0], "rho": 0.5, "rho1": 0.7}


def write_config(tmp_path, name="disk-expre03", **extra):
    cfg = {"domain": preset_config(name), "kappa": 2, "N": [8, 12, 16],
           "points": [[2.0, 0.0]]}
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return cli.main([str(a) for a in args])


def test_expand_disk_const(tmp_path):
    cfg = write_config(tmp_path, "disk-const")
    out = tmp_path / "out"
    assert run(["expand", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "model.json").read_text())
    jsonschema.validate(payload, cli.MODEL_SCHEMA)
    # constant weight: no surviving correction modes
    assert all(len(c["modes"]) == 0 for c in payload["corrections"])
    assert payload["diagnostics"]["omega_circle_residual"] <= 1e-10


def test_expand_disk_alpha_table(tmp_path):
    cfg = write_config(tmp_path, "disk-expre03", kappa=3)
    out = tmp_path / "out"
    assert run(["expand", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "model.json").read_text())
    jsonschema.validate(payload, cli.MODEL_SCHEMA)
    first = [c for c in payload["corrections"] if c["order"] == 1][0]
    assert first["modes"] == [-1]
    assert abs(first["coeffs"][0][0] - 0.3) < 1e-12 and abs(first["coeffs"][0][1]) < 1e-13


@pytest.mark.parametrize("command, extra", [
    ("expand", {"points": [[2.0]]}),
    ("expand", {"points": [["a", 0]]}),
    ("distributional", {"test_function": {"terms": [[1, 1, 1.0]]}}),
    ("kernel", {"kernel": {"w": [2.0], "z": [2.5, 0.0]}}),
    ("expand", {"tolerances": {"slope": "x"}}),
    ("oracle", {"oracle_degree": "abc"}),
    ("expand", {"domain": {"map": {"cap": 1.0, "tail": []},
                           "weight": {"kind": "exp-re-linear", "alpha": [0.3]}}}),
    ("expand", {"domain": {**preset_config("disk-expre03"), "M": 16.7}}),
    ("expand", {"domain": {**preset_config("disk-expre03"), "M": 0}}),
    ("eval", {"allow_out_of_validity": "false"}),
    ("distributional", {"test_function": {"terms": [[1, 1, 0.3, 0.0], [1, 1, 0.2, 0.0]]}}),
    ("oracle", {"domain": {**preset_config("disk-expre03"), "weight": []}}),
    ("expand", {"domain": {**preset_config("disk-expre03"), "map": [1.0, []]}}),
    ("eval", {"domain": {**preset_config("perturbed-expre"),
                         "map": {"cap": 1.0, "tail": [[0.0, 0.0], [math.nan, 0.0]]}}}),
    ("oracle", {"domain": {**preset_config("disk-expre03"),
                           "map": {"cap": math.inf, "tail": []}}}),
    ("expand", {"domain": {**preset_config("disk-expre03"), "rho": math.nan}}),
    ("expand", {"domain": {**preset_config("disk-expre03"), "weight": SAMPLED | {"degree": 2.7}}}),
    ("expand", {"domain": {**preset_config("disk-expre03"), "weight": SAMPLED | {"degree": -1}}}),
    ("expand", {"domain": {**preset_config("disk-expre03"),
                           "weight": SAMPLED | {"values": [0.0] + SAMPLED["values"][1:]}}}),
    ("expand", {"domain": {**preset_config("disk-expre03"),
                           "weight": SAMPLED | {"points": SAMPLED["points"][:3],
                                                "values": [1.0]}}}),
    ("expand", {"N": 5}),
    ("expand", {"N": "816"}),
    ("eval", {"points": 3}),
    ("kernel", {"kernel": "wz"}),
    ("distributional", {"test_function": {"terms": 7}}),
    ("distributional", {"test_function": ["terms"]}),
    ("kernel", {"kernel": KERNEL | {"rho1": 1.2}}),
    ("kernel", {"kernel": KERNEL | {"rho": 1.0, "rho1": 1.1}}),
    ("kernel", {"kernel": KERNEL | {"rho": 0.7, "rho1": 0.7}}),
    ("kernel", {"kernel": KERNEL | {"rho": 0.0}}),
    # rho1 = 0.55 lies inside the ellipse's univalence margin 0.606
    ("kernel", {"domain": preset_config("ellipse-expre"),
                "kernel": {"w": [3.0, 0.0], "z": [3.5, 0.0], "rho": 0.3, "rho1": 0.55}}),
], ids=["point-one-entry", "point-not-number", "term-row-three-entries", "kernel-w-one-entry",
        "slope-not-number", "oracle-degree-not-number", "alpha-one-entry", "M-not-integer",
        "M-not-positive", "allow-out-of-validity-string", "term-repeated", "weight-not-object",
        "map-not-object", "tail-nan", "cap-infinite", "rho-nan", "sample-degree-not-integer",
        "sample-degree-negative", "sample-value-not-positive", "sample-values-count", "N-not-list", "N-string", "points-not-list",
        "kernel-not-object", "terms-not-list", "test-function-not-object",
        "kernel-rho1-exterior", "kernel-rho-not-below-one", "kernel-rho1-not-above-rho",
        "kernel-rho-not-positive", "kernel-rho1-inside-margin"])
def test_malformed_field_is_config_error(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path, **extra)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, domain, message", [
    ("expand", {**preset_config("disk-expre03"), "rho": 1.2},
     "[stage: weight-pullback] inner radius must lie in (0, 1)"),
    # the ellipse's univalence margin is 0.606
    ("expand", {**preset_config("ellipse-expre"), "rho": 0.6},
     "inner radius 0.6 is not inside the analytic collar (univalence margin 0.606)"),
    ("expand", {"weight": preset_config("disk-expre03")["weight"]},
     "missing config field: 'map'"),
    ("expand", {**preset_config("disk-expre03"), "map": {"tail": []}},
     "missing config field: 'cap'"),
    ("expand", {**preset_config("disk-expre03"), "weight": {"kind": "exp-re-linear"}},
     "missing config field: 'alpha'"),
    ("expand", {**preset_config("disk-const"), "weight": {"kind": "const", "value": 0}},
     "[stage: config] constant weight must be positive"),
    ("expand", {**preset_config("disk-const"), "weight": {"kind": "const", "value": -1}},
     "[stage: config] constant weight must be positive"),
    ("distributional", preset_config("disk-expre03"),
     "distributional needs test_function.terms"),
], ids=["rho-exterior", "rho-inside-margin", "no-map", "no-cap", "no-alpha", "const-zero",
        "const-negative", "no-terms"])
def test_refusal_names_what_it_refuses(tmp_path, capsys, command, domain, message):
    cfg = write_config(tmp_path, domain=domain)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, code", [
    ({"N": [3, 8], "test_function": {"terms": [[1, 1, 1.0, 0.0]]}}, 4),
    ({}, 2),
], ids=["degree-below-threshold", "no-terms"])
def test_distributional_checks_the_request_before_the_model(tmp_path, monkeypatch, extra,
                                                            code):
    def forbidden(*args, **kwargs):
        raise AssertionError("distributional built a model for a request it refuses")

    monkeypatch.setattr(cli, "build_model", forbidden)
    cfg = write_config(tmp_path, **extra)
    assert run(["distributional", "--config", cfg, "--out", tmp_path / "o"]) == code


def test_sample_values_refusal_names_the_field(tmp_path, capsys):
    # a non-positive sample and a count that does not match the points are
    # refused while the config is read, not by the fit
    for weight in (SAMPLED | {"values": [-1.0] + SAMPLED["values"][1:]},
                   SAMPLED | {"points": SAMPLED["points"][:3], "values": [1.0]}):
        cfg = write_config(tmp_path, domain={**preset_config("disk-expre03"), "weight": weight})
        assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "[stage: config] weight.values" in capsys.readouterr().err


@pytest.mark.parametrize("K, code", [(2.7, 2), (True, 2), (32, 0), (48, 2), (7, 2)])
def test_K_is_parsed_as_an_integer(tmp_path, capsys, K, code):
    # a fractional or boolean K is refused and named, not truncated to 2 or 1;
    # an integral K other than 2M = 32 is refused and names M, not ignored
    cfg = write_config(tmp_path, domain={**preset_config("disk-expre03"), "K": K})
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == code
    err = capsys.readouterr().err
    assert ("[stage: config] K must be" in err) == (code == 2)
    assert ("(M = 16)" in err) == (type(K) is int and code == 2)


def test_degree_string_is_not_read_by_character(tmp_path, capsys):
    # a string is not a list: "816" is not the degrees 8, 1, 6 (refused as unsorted)
    cfg = write_config(tmp_path, N="816")
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "N must be a list, got '816'" in capsys.readouterr().err


@pytest.mark.parametrize("out", [5, None, ["o"], {}, True], ids=repr)
def test_out_that_is_not_a_string_is_refused(tmp_path, monkeypatch, capsys, out):
    # without --out the directory comes from the config's 'out' field
    cfg = write_config(tmp_path, out=out)
    monkeypatch.chdir(tmp_path)
    assert run(["expand", "--config", cfg]) == 2
    assert f"out must be a directory path string, got {out!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# JSON values of the wrong type for every experiment field: no digits in the
# strings, so none parses to a degree large enough to exhaust memory
_SCALARS = st.none() | st.booleans() | st.text(
    st.characters(blacklist_categories=("Nd", "Cs")), max_size=5)
_WRONG = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["w", "z", "rho", "rho1", "terms", "slope"]), inner, max_size=3),
    max_leaves=6)
_FIELDS = ["N", "points", "tolerances", "allow_out_of_validity", "kernel", "test_function"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_WRONG)
def test_wrong_json_type_is_refused_not_raised(tmp_path_factory, command, field, value):
    # a typed exit code whatever the value: 2 for the refused ones, and a
    # command that ignores the field runs as usual (verify fits no slope at one N)
    tmp = tmp_path_factory.mktemp("wrong")
    fields = {"kappa": 1, "N": [8], "test_function": {"terms": [[1, 1, 0.3, 0.0]]},
              "kernel": KERNEL}
    cfg = write_config(tmp, **(fields | {field: value}))
    assert run([command, "--config", cfg, "--out", tmp / "o"]) in (0, 2, 3, 4)


@pytest.mark.parametrize("command", ["eval", "verify", "distributional", "kernel", "oracle"])
@pytest.mark.parametrize("low", [-3, 0, 2])
def test_degree_out_of_range_is_refused(tmp_path, capsys, command, low):
    # a negative degree is a config error (exit 2); the expansion refuses degrees
    # below N_MIN (exit 4), while the oracle serves every degree from 0
    cfg = write_config(tmp_path, "ellipse-expre", N=[low, 8], points=[[2.5, 0.0]],
                       test_function={"terms": [[1, 1, 0.3, 0.0]]},
                       kernel={"w": [3.0, 0.0], "z": [3.5, 0.0]})
    out = tmp_path / "o"
    code = 2 if low < 0 else 0 if command == "oracle" else 4
    assert run([command, "--config", cfg, "--out", out]) == code
    if code:
        assert not out.exists()
        err = capsys.readouterr().err
        assert ("config error" if code == 2 else "below the asymptotic threshold 4") in err
    else:
        assert (out / "oracle.json").exists()


@pytest.mark.parametrize("command", ["oracle", "verify", "distributional", "kernel"])
def test_oracle_degree_is_retired(tmp_path, capsys, command):
    # the boundary oracle sizes itself from the degree, so the key is refused
    cfg = write_config(tmp_path, oracle_degree=64)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "oracle_degree" in capsys.readouterr().err


def test_malformed_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": {"map": {"cap": -1.0, "tail": []},
                                           "weight": {"kind": "const"}},
                                "N": [4], "points": [[2.0, 0.0]]}))
    assert run(["expand", "--config", path, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("text", ["5", '["domain"]'])
def test_config_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run(["expand", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "config must be an object" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run(["expand", "--config", tmp_path / "nope.json", "--out", tmp_path]) == 2


def test_empty_degree_list(tmp_path):
    cfg = write_config(tmp_path, N=[])
    assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_unsorted_degree_list(tmp_path):
    cfg = write_config(tmp_path, N=[16, 8])
    assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command", ["eval", "verify", "distributional", "kernel"])
def test_repeated_degree_is_refused(tmp_path, capsys, recwarn, command):
    # a degree given twice would put two identical points into verify's slope
    # fit; the list must be strictly ascending for every command
    cfg = write_config(tmp_path, "ellipse-expre", points=[[3.0, 0.0]],
                       test_function={"terms": [[1, 1, 0.3, 0.0]]},
                       kernel={"w": [3.0, 0.0], "z": [3.5, 0.0]})
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out, "--n", "8,8"]) == 2
    assert "degree 8 follows 8" in capsys.readouterr().err
    assert not out.exists() and not recwarn.list


def test_eval_out_of_validity(tmp_path):
    cfg = write_config(tmp_path, points=[[0.2, 0.0]])
    assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == 4


def test_eval_flagging_allowed(tmp_path):
    cfg = write_config(tmp_path, points=[[0.2, 0.0], [2.0, 0.0]],
                       allow_out_of_validity=True)
    out = tmp_path / "o"
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "eval.json").read_text())
    jsonschema.validate(payload, cli.EVAL_SCHEMA)
    flags = {tuple(r["point"]): r["valid"] for r in payload["results"]}
    assert flags[(0.2, 0.0)] is False and flags[(2.0, 0.0)] is True


def test_oracle_artifacts(tmp_path, disk_alpha_model):
    cfg = write_config(tmp_path, N=[8])
    out = tmp_path / "o"
    assert run(["oracle", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    jsonschema.validate(payload, cli.ORACLE_SCHEMA)
    assert payload["gram_residual"] <= 1e-10
    lines = (out / "gram_residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "degree,kappa_n,gram_residual"
    assert len(lines) == payload["degree"] + 2
    column = [float(line.split(",")[2]) for line in lines[1:]]
    # direct recomputation of the boundary Gram matrix <P_k, P_j> = mean(P_k e^P conj(B_j)
    # psi' zeta) from the samples and the primitives' samples, B_j's mode k being mode k of
    # (P_j e^P o psi) psi' zeta over k: row and column n of the leading (n+1) x (n+1) block
    polys = boundary_onps(disk_alpha_model.map, disk_alpha_model.weight.holo_poly, 8)
    rule = polys.rule
    freq = np.fft.fftfreq(rule.L, 1.0 / rule.L)
    freq[0] = np.inf   # the primitives' constant mode is 0
    primitive = np.fft.ifft(polys.modes / freq[:, None], axis=0, norm="forward")
    gram = np.array([[np.sum(polys.basis[:, k] * rule.weight * np.conj(primitive[:, j]))
                      for k in range(9)] for j in range(9)])
    dev = np.abs(gram - np.eye(9))
    direct = [max(dev[:n + 1, n].max(), dev[n, :n + 1].max()) for n in range(9)]
    assert np.max(np.abs(np.array(column) - direct)) <= 1e-14
    assert payload["rule"] == {"kind": "boundary", "L": rule.L, "second_passes": 0, **{
        key: pytest.approx(polys.health[key], abs=1e-15)
        for key in ("tail", "gram_deviation")}}
    assert payload["rule"]["tail"] <= 1e-13
    assert max(column) == payload["gram_residual"]


def test_verify_rates_and_summary(tmp_path):
    cfg = write_config(tmp_path, N=[8, 12, 16, 24])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, cli.SUMMARY_SCHEMA)
    assert summary["passed"] is True
    assert abs(summary["slopes"]["1"]["slope"] + 2.0) < 0.35
    rates = (out / "rates.csv").read_text().strip().splitlines()
    assert rates[0].startswith("N,kappa,pointwise_error")
    assert len(rates) == 1 + 4 * 3
    dat = (out / "rates.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    # the summary names its oracle: the rule block of oracle.json for the same config
    assert run(["oracle", "--config", cfg, "--out", out]) == 0
    assert summary["oracle"] == json.loads((out / "oracle.json").read_text())["rule"]


def test_verify_far_centred_disk(tmp_path):
    # disk-expre03 moved to centre 2: the oracle orthonormalizes in the domain's
    # own frame, so the slopes are those of the centred disk, -0.94 .. -3.92
    # (multiplying by z, the Gram gate refused the degree-40 oracle)
    domain = preset_config("disk-expre03") | {"map": {"cap": 1.0, "tail": [[2.0, 0.0]]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": domain, "kappa": 3, "N": [8, 16, 24, 32, 40],
                               "points": [[4.0, 0.5]]}))
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    slopes = json.loads((out / "summary.json").read_text())["slopes"]
    assert all(abs(slopes[str(j)]["slope"] + j + 1) < 0.1 for j in range(4))


def test_padded_tail_verifies_byte_for_byte_like_the_canonical_one(tmp_path):
    # two trailing zeros in ellipse-expre's tail name the same domain: sized by
    # the stored tail, the oracle took L = 256 for it, not 128, and rates.csv
    # parted from the canonical tail's in the 14th digit
    written = []
    for i, tail in enumerate(([[0, 0], [0.5, 0]], [[0, 0], [0.5, 0], [0, 0], [0, 0]])):
        domain = preset_config("ellipse-expre") | {"map": {"cap": 1.5, "tail": tail}}
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"o{i}"
        cfg.write_text(json.dumps({"domain": domain, "kappa": 2, "N": [8, 14, 20, 24],
                                   "points": [[2.4, 0.3]]}))
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[1] == written[0]


def test_verify_long_tail_map(tmp_path):
    # the 55-term cut of zeta + 0.05 / (zeta - 0.5) (margin 0.76): a tail far
    # longer than any preset's verifies to kappa = 4 on a degree-96 oracle
    domain = {"map": {"cap": 1.0, "tail": [[a, 0.0] for a in LONG_TAIL]},
              "weight": {"kind": "exp-re-linear", "alpha": [0.3, 0.2]}, "rho": 0.8, "M": 40}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": domain, "kappa": 4, "N": [16, 32, 48, 64, 80, 96],
                               "points": [[1.6, 0.4]]}))
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    slopes = [summary["slopes"][str(j)]["slope"] for j in range(5)]
    assert slopes == pytest.approx([-0.973, -1.969, -2.964, -3.957, -4.951], abs=5e-4)


def test_verify_refuses_more_than_one_point(tmp_path, capsys):
    # verify checks the pointwise error at one point; a longer list used to
    # pass on its first entry, here (2, 0), leaving 0 and 1e300 unchecked
    cfg = write_config(tmp_path, N=[8, 12, 16, 24], points=[[2, 0], [0, 0], [1e300, 0]])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 2
    assert "points has 3 entries" in capsys.readouterr().err
    assert not out.exists()


def test_verify_carleman_steep_slope(tmp_path):
    cfg = write_config(tmp_path, "ellipse-const", N=[8, 12, 16], points=[[3.0, 0.0]])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slopes"]["0"]["slope"] <= -6.0
    assert summary["slopes"]["0"]["steeper_than_polynomial"] is True


def test_distributional_constant(tmp_path):
    cfg = write_config(tmp_path, N=[8, 16],
                       test_function={"terms": [[0, 0, 1.0, 0.0]]})
    out = tmp_path / "o"
    assert run(["distributional", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "distributional.json").read_text())
    jsonschema.validate(payload, cli.DISTRIBUTIONAL_SCHEMA)
    assert payload["leading"]["plus_infinity"] == [1.0, 0.0]
    for row in payload["rows"]:
        assert row["expansion"] == [1.0, 0.0]
        assert row["abs_error"] <= 1e-3


def test_kernel_command(tmp_path):
    cfg = write_config(tmp_path, N=[8, 16],
                       kernel={"w": [2.0, 0.0], "z": [2.5, 0.0], "rho": 0.5, "rho1": 0.7})
    out = tmp_path / "o"
    assert run(["kernel", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "kernel.json").read_text())
    jsonschema.validate(payload, cli.KERNEL_SCHEMA)
    errs = [r["ratio_error"] for r in payload["offspectral"]]
    assert errs[-1] < errs[0]


def test_kernel_evaluates_the_oracle_once(tmp_path, monkeypatch):
    # P_0 .. P_Nmax at z and w in one evaluation, every N read from one
    # cumulative sum; the reference evaluates each point on its own
    calls = []
    evaluate = OraclePolynomials.evaluate

    def counted(self, z, upto=None):
        calls.append(np.size(z))
        return evaluate(self, z, upto)

    def kernel(polys, z, w, N):
        pz, pw = (evaluate(polys, np.array([x]), N) for x in (z, w))
        return np.sum(pz * np.conj(pw))

    cfg = write_config(tmp_path, N=[8, 16, 32], kernel=KERNEL)
    domain = geometry.load_domain_config(preset_config("disk-expre03"))
    polys = boundary_onps(domain[0], domain[1].holo_poly, 32)
    monkeypatch.setattr(OraclePolynomials, "evaluate", counted)
    z, w = complex(*KERNEL["z"]), complex(*KERNEL["w"])
    assert planorth.oracle_kernel(polys, z, w, 20) == pytest.approx(kernel(polys, z, w, 20),
                                                                     rel=1e-14)
    assert calls == [2]
    calls.clear()
    assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert calls == [2]
    for row in json.loads((tmp_path / "o" / "kernel.json").read_text())["offspectral"]:
        N = row["N"]
        want = abs(kernel(polys, z, w, N)) / math.sqrt(kernel(polys, w, w, N).real)
        assert abs(row["oracle_modulus"] / want - 1.0) <= 1e-13, N


def test_kernel_band_next_to_rho(tmp_path):
    # the diagonal's band starts at |phi| = 1.01 rho, where the kernel's tail
    # terms shrink only by (rho/r)^2 = 0.98
    cfg = write_config(tmp_path, N=[8, 16],
                       kernel={"w": [2.0, 0.0], "z": [2.5, 0.0], "rho": 0.5, "rho1": 0.505})
    out = tmp_path / "o"
    assert run(["kernel", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "kernel.json").read_text())
    assert all(np.isfinite(r["sup"]) and r["sup"] > 0 for r in payload["diag_bound"])


def test_kernel_not_off_spectral(tmp_path):
    cfg = write_config(tmp_path, N=[8],
                       kernel={"w": [0.5, 0.0], "z": [2.5, 0.0]})
    assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 4


def test_rerun_bit_identical(tmp_path):
    cfg = write_config(tmp_path, "ellipse-expre", N=[8])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["expand", "--config", cfg, "--out", out1]) == 0
    assert run(["expand", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


def test_kappa_cap(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o", "--kappa", "9"]) == 2


def test_out_dir_from_config(tmp_path):
    cfg = write_config(tmp_path, "disk-const", out=str(tmp_path / "from-config"))
    assert run(["expand", "--config", cfg]) == 0
    assert (tmp_path / "from-config" / "model.json").exists()


def test_tolerances_object(tmp_path):
    cfg = write_config(tmp_path, N=[8, 12, 16], tolerances={"slope": 0.5})
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tolerance"] == 0.5


def test_validity_constant_widens_region(tmp_path):
    # |phi| = 0.8 at N = 16 sits below 1 - log(16)/16 ~ 0.827 but inside the
    # region widened by a doubled constant
    cfg = write_config(tmp_path, N=[16], points=[[0.8, 0.0]])
    assert run(["eval", "--config", cfg, "--out", tmp_path / "a"]) == 4
    cfg2 = write_config(tmp_path, N=[16], points=[[0.8, 0.0]], validity_constant=2.0)
    assert run(["eval", "--config", cfg2, "--out", tmp_path / "b"]) == 0


def test_custom_samples_weight_end_to_end(tmp_path):
    import numpy as np
    truth = 0.3
    pts = 1.05 * np.exp(2j * np.pi * np.arange(24) / 24)
    vals = np.exp(2 * truth * np.real(pts))
    domain = {"map": {"cap": 1.0, "tail": []},
              "weight": {"kind": "custom-samples",
                         "points": [[z.real, z.imag] for z in pts],
                         "values": list(vals), "degree": 2},
              "rho": 0.5, "M": 16, "K": 32}
    cfg = write_config(tmp_path, N=[8], kappa=2)
    cfg_obj = json.loads(cfg.read_text())
    cfg_obj["domain"] = domain
    cfg.write_text(json.dumps(cfg_obj))
    out = tmp_path / "o"
    assert run(["expand", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "model.json").read_text())
    first = [c for c in payload["corrections"] if c["order"] == 1][0]
    got = dict(zip(first["modes"], [c[0] for c in first["coeffs"]]))
    assert abs(got.get(-1, 0.0) - truth) < 1e-8


def test_eval_nonfinite_is_typed(tmp_path):
    # ellipse-expre at z=3: monic overflows to inf at N=1000, and C_N itself
    # leaves the float range at N=2000; neither may reach an artifact
    for N in (1000, 2000):
        cfg = write_config(tmp_path, "ellipse-expre", N=[N], points=[[3.0, 0.0]])
        out = tmp_path / f"o{N}"
        assert run(["eval", "--config", cfg, "--out", out]) == 3
        assert not out.exists()


def test_write_json_refuses_nan(tmp_path):
    with pytest.raises(NonFiniteError):
        cli._write_json(tmp_path, "x.json", {"v": float("nan")})
    assert not (tmp_path / "x.json").exists()


def test_verify_exact_model_passes(tmp_path):
    # every correction of the flat disk vanishes: the pointwise errors are
    # roundoff, whose fitted slope means nothing, so each order passes as exact
    cfg = write_config(tmp_path, "disk-const", N=[8, 12, 16, 24])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    for entry in summary["slopes"].values():
        assert entry["exact"] is True and entry["slope"] is None and entry["pass"] is True
    rates = np.loadtxt(out / "rates.csv", delimiter=",", skiprows=1)
    assert np.all(rates[:, 2] <= cli.FLOOR_PER_DEGREE * rates[:, 0])
    assert summary["pointwise_floor_per_degree"] == cli.FLOOR_PER_DEGREE


@pytest.mark.parametrize("z", [[3.0, 0.0], [4.0, 1.0]])
def test_verify_passes_orders_at_the_roundoff_floor(tmp_path, z):
    # ellipse-const: every order's error is roundoff from N = 16 on, so only
    # N = 8 lies above the floor 8 N eps; the order agrees, with no slope
    cfg = write_config(tmp_path, "ellipse-const", kappa=3, N=[8, 16, 32, 64, 128], points=[z])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for entry in summary["slopes"].values():
        assert entry["slope"] is None and entry["pass"] is True and "exact" not in entry
    rates = np.loadtxt(out / "rates.csv", delimiter=",", skiprows=1)
    floor = summary["pointwise_floor_per_degree"] * rates[:, 0]
    assert np.array_equal(rates[:, 2] > floor, rates[:, 0] == 8)


# oracle-check's verify slots: (preset, kappa, N) with N evenly spaced from 8
VERIFY_SLOTS = [("disk-expre03", 2, [8, 16, 24, 32, 40]),
                ("ellipse-expre", 1, [8, 14, 20, 26, 32]),
                ("perturbed-expre", 2, [8, 12, 16, 20, 24])]


@pytest.mark.parametrize("negate", [False, True], ids=["model", "negated-X1"])
@pytest.mark.parametrize("name, kappa, Ns", VERIFY_SLOTS)
def test_verify_fits_every_degree_above_the_floor(tmp_path, monkeypatch, name, kappa, Ns,
                                                   negate):
    # every degree lies above the floor, so each slope is the fit over all of
    # them; with X_1 negated the model is wrong from order 1 on and fails
    def build(*args, **kwargs):
        model = planorth.expansion.build_model(*args, **kwargs)
        sign = np.where(np.arange(model.order + 1) == 1, -1.0, 1.0)[:, None]
        return dataclasses.replace(
            model, coeffs=dataclasses.replace(model.coeffs, stack=sign * model.coeffs.stack))

    if negate:
        monkeypatch.setattr(cli, "build_model", build)
    z = complex(preset_model(name, 0).map.psi(1.5 * np.exp(1j)))
    cfg = write_config(tmp_path, name, kappa=kappa, N=Ns, points=[[z.real, z.imag]])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == (3 if negate else 0)
    slopes = json.loads((out / "summary.json").read_text())["slopes"]
    rates = np.loadtxt(out / "rates.csv", delimiter=",", skiprows=1)
    for k in range(kappa + 1):
        rows = rates[rates[:, 1] == k]
        assert np.all(rows[:, 2] > cli.FLOOR_PER_DEGREE * rows[:, 0]), k
        fit = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 2]), 1)[0]
        assert slopes[str(k)]["slope"] == fit, k
        assert slopes[str(k)]["pass"] is (k == 0 or not negate), k


def test_order_gate_reads_the_floor_per_degree():
    eps = cli.FLOOR_PER_DEGREE / 8
    floor = [(N, 4 * N * eps) for N in (8, 16, 32, 64)]   # roundoff at every degree
    assert cli._order_gate(floor, -2, 0.35)["exact"] is True
    # above the floor at the smallest degree only: agreement, no slope
    gate = cli._order_gate([(8, 1e-9)] + floor[1:], -2, 0.35)
    assert gate["slope"] is None and gate["pass"] is True and "exact" not in gate
    # one degree alone, or one that rises off the floor after it, fails
    assert cli._order_gate([(8, 1e-9)], -2, 0.35)["pass"] is False
    assert cli._order_gate(floor[:3] + [(64, 1e-10)], -2, 0.35)["pass"] is False
    rising = cli._order_gate(floor[:2] + [(32, 1e-12), (64, 1e-10)], -2, 0.35)
    assert rising["slope"] > 0 and rising["pass"] is False
    # a degree that leaves the floor after it has reached it fails, whatever the slope
    late = cli._order_gate([(8, 1e-6)] + floor[1:] + [(128, 1e-10)], -2, 0.35)
    assert late["slope"] < -3 and late["pass"] is False
    # the slope is fitted over the degrees above the floor alone
    gate = cli._order_gate([(8, 8.0 ** -3), (16, 16.0 ** -3), floor[2], floor[3]], -3, 0.35)
    assert gate["slope"] == pytest.approx(-3.0) and gate["pass"] is True


def test_verify_single_degree_has_no_slope(tmp_path):
    cfg = write_config(tmp_path, N=[8])
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", out]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slopes"]["0"]["slope"] is None
    assert summary["passed"] is False


def test_fractional_degree_in_config(tmp_path):
    cfg = write_config(tmp_path, N=[30.5])
    assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_fractional_degree_on_command_line(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["eval", "--config", cfg, "--out", tmp_path / "o", "--n", "30.5"]) == 2


def test_fractional_kappa_in_config(tmp_path):
    cfg = write_config(tmp_path, kappa=2.5)
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.fixture
def mapped_points(monkeypatch):
    """Every point sent through the Newton inversion (``_map_forward``, which
    ``map_forward_many`` calls), whichever planorth module calls it: one array
    per call."""
    calls = []
    original = geometry._map_forward

    def counting(m, zs, *args, **kwargs):
        calls.append(np.array(zs, dtype=complex).ravel())
        return original(m, zs, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("planorth") and getattr(module, "_map_forward", None) is original:
            monkeypatch.setattr(module, "_map_forward", counting)
    return calls


@pytest.mark.parametrize("command", ["verify", "distributional"])
def test_oracle_commands_map_only_the_evaluation_point(tmp_path, monkeypatch, mapped_points,
                                                       command):
    evaluated = []
    build, evaluate = cli.build_model, OraclePolynomials.evaluate

    def build_then_clear(*args, **kwargs):
        model = build(*args, **kwargs)
        mapped_points.clear()
        return model

    def watch_evaluate(self, z, upto=None):
        evaluated.append(np.ravel(z).copy())
        return evaluate(self, z, upto)

    monkeypatch.setattr(cli, "build_model", build_then_clear)
    monkeypatch.setattr(OraclePolynomials, "evaluate", watch_evaluate)
    cfg = write_config(tmp_path, "ellipse-expre", N=[8, 12, 16, 24], points=[[2.5, 0.5]],
                       test_function={"terms": [[0, 0, 0.5, 0.0], [1, 1, 0.2, 0.0]]})
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 0
    # no collar or boundary node goes through Newton's method or the recurrence
    want = [np.array([2.5 + 0.5j])] if command == "verify" else []
    assert [c.tolist() for c in mapped_points] == [c.tolist() for c in want]
    assert [c.tolist() for c in evaluated] == [c.tolist() for c in want]


def test_offspectral_leading_maps_each_point_once(ellipse_exp_model, mapped_points):
    point = off_spectral_point(ellipse_exp_model.map, 2.5 + 0.3j)
    mapped_points.clear()
    z = ellipse_exp_model.map.psi(1.2 * np.exp(2j * np.pi * np.arange(256) / 256))
    offspectral_leading(ellipse_exp_model, point, 64, z)
    assert sum(c.size for c in mapped_points) == 256


def test_eval_maps_each_point_once(tmp_path, monkeypatch, mapped_points):
    build = cli.build_model

    def build_then_clear(*args, **kwargs):
        model = build(*args, **kwargs)
        mapped_points.clear()
        return model

    monkeypatch.setattr(cli, "build_model", build_then_clear)
    cfg = write_config(tmp_path, "ellipse-expre", N=[8, 16, 32],
                       points=[[2.0, 0.0], [0.3, 1.6]])
    assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert sum(c.size for c in mapped_points) == 2


def _captured(monkeypatch, name):
    """The return values of ``cli.<name>`` from now on."""
    seen = []
    original = getattr(cli, name)

    def capture(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, capture)
    return seen


def test_verify_rows_match_the_per_row_formulas(tmp_path, monkeypatch):
    # every (N, kappa) row against monic_at and leading_coeff at that row alone;
    # the pointwise error is a difference of two values of size 1 in units of
    # its scale, so it agrees to 1e-12 absolute, the leading coefficient exactly
    models = _captured(monkeypatch, "build_model")
    oracles = _captured(monkeypatch, "boundary_onps")
    cfg = write_config(tmp_path, "ellipse-expre", kappa=3, N=[8, 12, 16, 24, 32],
                       points=[[1.9, 0.7]])
    assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 0
    model, polys = models[0], oracles[0]
    z0 = np.array([1.9 + 0.7j])
    zeta, _ = geometry.map_forward_many(model.map, z0)
    p0 = polys.evaluate(z0)[0]
    lines = (tmp_path / "o" / "rates.csv").read_text().splitlines()[1:]
    rows = [[float(x) for x in line.split(",")] for line in lines]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(N, k) for k in range(4)
                                                     for N in (8, 12, 16, 24, 32)]
    for N, k, perr, _, krel in rows:
        N, k = int(N), int(k)
        factor = expansion._pointwise(model, N, zeta[0])[0]
        scale = planorth.monic_prefactor(model, N) * abs(factor)
        want = abs(p0[N] / polys.kappa[N] - planorth.monic_at(model, N, zeta, order=k)[0]) / scale
        assert abs(perr - want) <= 1e-12, (N, k, perr, want)
        assert krel == abs(planorth.leading_coeff(model, N, k) / polys.kappa[N] - 1.0), (N, k)


def test_verify_reads_the_point_in_one_pass(tmp_path, monkeypatch):
    # every degree and order from one pass over the mapped point, the degrees
    # on a leading axis, and no circle series evaluated there: V and the X_j
    # come from the point table
    passes, evaluated = [], []
    pointwise, evaluate = expansion._pointwise, planorth.CircleSeries.evaluate

    def counted_pointwise(model, N, zeta, weights=None, mapped=None):
        passes.append((np.ravel(N).tolist(), np.shape(zeta), np.shape(weights)))
        return pointwise(model, N, zeta, weights, mapped)

    def counted_evaluate(self, z):
        evaluated.append(np.size(z))
        return evaluate(self, z)

    monkeypatch.setattr(expansion, "_pointwise", counted_pointwise)
    monkeypatch.setattr(planorth.CircleSeries, "evaluate", counted_evaluate)
    cfg = write_config(tmp_path, "perturbed-expre", kappa=3, N=[8, 12, 16, 24])
    assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert passes == [([8, 12, 16, 24], (1,), (4, 4, 4))]
    assert 1 not in evaluated


def test_eval_rows_match_the_per_point_values(tmp_path, monkeypatch):
    # one monic_at and one normalized_at call per degree over its valid points,
    # read back in the order of the points: each row is the per-point value
    models = _captured(monkeypatch, "build_model")
    points = [[2.0, 0.0], [0.3, 1.02], [-1.1, -1.0], [0.0, 0.0], [1.7, 0.4]]
    cfg = write_config(tmp_path, "ellipse-expre", N=[8, 64, 500], points=points,
                       allow_out_of_validity=True)
    assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == 0
    model = models[0]
    results = json.loads((tmp_path / "o" / "eval.json").read_text())["results"]
    assert [(r["N"], r["point"]) for r in results] == [(N, p) for N in (8, 64, 500)
                                                       for p in points]
    flags = [r["valid"] for r in results]
    assert any(flags) and not all(flags)
    for r in results:
        z = complex(*r["point"])
        zeta, ok = geometry.map_forward_many(model.map, np.array([z]))
        valid = bool(ok[0]) and abs(zeta[0]) >= planorth.validity_radius(r["N"])
        assert r["valid"] == valid, r
        if valid:   # to the last bits of the mapped point, which a batch may round apart
            for key, f in (("monic", planorth.monic_eval),
                           ("normalized", planorth.normalized_eval)):
                want = f(model, r["N"], z)
                assert abs(complex(*r[key]) - want) <= 1e-14 * abs(want), r


def test_parser_needs_a_known_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for argv in ([], ["--config", cfg], ["expnad", "--config", cfg]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    err = capsys.readouterr().err
    assert "invalid choice" in err and "expnad" in err


def test_parser_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == planorth.__version__


def test_readme_invocations_parse():
    # every command line of the README's shell blocks, and one with every flag
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [shlex.split(line, comments=True) for b in blocks for line in b.splitlines()]
    lines = [words[1:] for words in lines if words and words[0] == "planorth"]
    assert sorted(words[0] for words in lines) == sorted(cli._COMMANDS)
    for words in lines:
        args = cli.make_parser().parse_args(words)
        assert vars(args) == {"command": words[0], "config": "cfg.json", "out": "out/",
                              "kappa": None, "n": None, "tol": None}, words
    args = cli.make_parser().parse_args(["verify", "--config", "c.json", "--kappa", "3",
                                         "--n", "8,16", "--tol", "0.5", "--out", "o"])
    assert vars(args) == {"command": "verify", "config": "c.json", "out": "o",
                          "kappa": 3, "n": "8,16", "tol": 0.5}


@pytest.mark.parametrize("coeffs, code", [
    ([], 2),
    ([[0.4, 0.1]], 0),
    ([[0.0, 0.0], [0.0, 0.0]], 0),
], ids=["empty", "one-term", "all-zero"])
def test_exp_re_poly_coefficient_count(tmp_path, capsys, coeffs, code):
    domain = {**preset_config("disk-const"), "weight": {"kind": "exp-re-poly", "coeffs": coeffs}}
    cfg = write_config(tmp_path, domain=domain)
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == code
    if code == 2:
        assert "config error [expand]" in capsys.readouterr().err
        with pytest.raises(ConfigError):
            geometry.exp_re_poly_weight([])


def test_weight_beyond_the_float_range_is_typed(tmp_path, capsys):
    # exp(F) for P = 1e200 z leaves the float range on the circle samples:
    # a typed refusal before the FFT, under the suite's RuntimeWarning filter
    domain = {"map": {"cap": 1.0, "tail": []},
              "weight": {"kind": "exp-re-poly", "coeffs": [[0.0, 0.0], [1e200, 0.0]]},
              "rho": 0.7, "M": 24}
    cfg = write_config(tmp_path, domain=domain)
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "exp of a series at bandwidth 48" in capsys.readouterr().err
    m, wd, rho, M, _ = geometry.load_domain_config(domain)
    with pytest.raises(NonFiniteError, match="stage: outer-function"):
        planorth.build_model(m, wd, 2, bidegree=M, inner_radius=rho)


@pytest.mark.parametrize("weight, message", [
    ({"points": [], "values": []}, "0 weight samples determine 0 of the 9"),
    ({"points": [[1.1, 0.0]], "values": [2.0]}, "1 weight samples determine 1 of the 9"),
    ({"points": [[1.1 + 0.1 * k, 0.0] for k in range(10)],
      "values": [1.0 + 0.1 * k for k in range(10)], "degree": 2},
     "10 weight samples determine 3 of the 5"),
], ids=["no-samples", "one-sample", "real-axis"])
def test_custom_samples_must_determine_the_polynomial(tmp_path, capsys, weight, message):
    domain = {**preset_config("disk-const"), "weight": {"kind": "custom-samples", **weight}}
    cfg = write_config(tmp_path, domain=domain)
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "config error [expand]" in err and message in err
    assert not (tmp_path / "o").exists()


def test_model_payload_modes_match_per_mode_listing(all_preset_models):
    # the mode lists of model.json against the per-mode comprehension they
    # replace, compared as serialized text
    for name, model in all_preset_models.items():
        payload = cli._model_payload(model, {"domain": name})
        want = []
        for j in range(1, model.order + 1):
            X = model.coeffs.X[j]
            modes = [k for k in range(-X.bandwidth, X.bandwidth + 1) if abs(X.coeff(k)) > 1e-15]
            want.append({"order": j, "modes": modes,
                         "coeffs": [[X.coeff(k).real, X.coeff(k).imag] for k in modes]})
        assert json.dumps(payload["corrections"]) == json.dumps(want), name
        v = model.szego.v_exterior
        vmodes = [k for k in range(-v.bandwidth, 1) if abs(v.coeff(k)) > 1e-15]
        vwant = {"modes": vmodes, "coeffs": [[v.coeff(k).real, v.coeff(k).imag] for k in vmodes]}
        assert json.dumps(payload["szego"]["v_exterior"]) == json.dumps(vwant), name


def test_expand_builds_no_moment_table(tmp_path, monkeypatch):
    # model.json holds the norm constants only, which read no moment table;
    # expand, eval and kernel never form the products A_j = X_j E, and verify
    # and distributional form them once per request
    built, stacks = [], []

    def capture(*args, **kwargs):
        built.append(planorth.expansion.build_model(*args, **kwargs))
        return built[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("a product stack formed where nothing reads it")

    def counted(*args, **kwargs):
        stacks.append(args)
        return product_stack(*args, **kwargs)

    product_stack = planorth.laplace._product_stack
    monkeypatch.setattr(cli, "build_model", capture)
    monkeypatch.setattr(planorth.laplace, "_product_stack", forbidden)
    assert run(["expand", "--config", write_config(tmp_path), "--out", tmp_path / "o"]) == 0
    assert len(built) == 1 and not {"products", "moments"} & set(built[0].__dict__)
    for command in ("eval", "kernel"):
        cfg = write_config(tmp_path, "ellipse-expre", kernel={**KERNEL, "w": [3.0, 0.0]})
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0, command
    monkeypatch.setattr(planorth.laplace, "_product_stack", counted)
    for command in ("verify", "distributional"):
        stacks.clear()
        cfg = write_config(tmp_path, "ellipse-expre", N=[8, 12, 16, 24],
                           test_function={"terms": [[1, 1, 0.3, 0.0], [2, 0, 0.1, 0.2]]})
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0, command
        assert len(stacks) == 1, command


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    # the cached parser: overrides of one call reach neither the next call
    # nor the parser's defaults
    assert cli.make_parser() is cli.make_parser()
    cfg = write_config(tmp_path, "disk-expre03", kappa=2, N=[8, 12])
    assert run(["expand", "--config", cfg, "--out", tmp_path / "a", "--kappa", "1",
                "--n", "16,20"]) == 0
    assert run(["expand", "--config", cfg, "--out", tmp_path / "b"]) == 0
    assert json.loads((tmp_path / "a" / "model.json").read_text())["kappa"] == 1
    assert json.loads((tmp_path / "b" / "model.json").read_text())["kappa"] == 2
    args = cli.make_parser().parse_args(["expand", "--config", str(cfg)])
    assert args.kappa is None and args.n is None and args.out is None


@pytest.mark.parametrize("command", ["verify", "distributional"])
def test_collar_rule_past_its_degrees_is_typed(tmp_path, capsys, command):
    # ellipse-expre at N = 300: the collar rule loses P_N, so the comparison
    # exits 3 with the stage named instead of writing a value near 1e19
    cfg = write_config(tmp_path, "ellipse-expre", N=[100, 200, 300], points=[[2.0, 0.0]],
                       test_function={"terms": [[1, 1, 1.0, 0.0]]})
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "[stage: oracle-collar]" in err and "N = 300" in err
    assert not out.exists()


# configs past the float range or the oracle's sample cap: each ends with its
# typed exit code and a message naming what tripped, under the suite's
# RuntimeWarning filter (no numpy warning on the way)
# psi = zeta + 1.44/zeta: psi' vanishes at +-1.2, outside the unit circle, so
# psi is no exterior map and every command refuses it as a config error
FOLDED = {"map": {"cap": 1.0, "tail": [[0.0, 0.0], [1.44, 0.0]]},
          "weight": {"kind": "exp-re-linear", "alpha": [0.3, 0.0]}, "rho": 0.99, "M": 16}
# rho = 0.96 on the unit disk: the collar's cutoff would rise from 1.01, outside
# the domain, so the commands that compare on the collar refuse it as config
NO_CUTOFF = {"domain": {**preset_config("disk-expre03"), "rho": 0.96},
             "test_function": {"terms": [[1, 1, 1.0, 0.0]]}}
ROBUSTNESS = [
    ("distributional", "ellipse-expre",
     {"N": [8, 16, 100000], "test_function": {"terms": [[1, 1, 1.0, 0.0]]}}, 3,
     "[stage: oracle] boundary oracle at degree 100000 needs L = 524288 circle samples"),
    ("verify", "ellipse-expre", {"points": [[1e200, 0.0]]}, 3,
     "out of float range (|z| up to 1e+200)"),
    ("verify", "disk-expre03", {"points": [[0.0, 0.0]]}, 4,
     "point could not be mapped into the analytic collar"),
    ("kernel", "ellipse-expre", {"kernel": {**KERNEL, "w": [3.0, 0.0], "z": [1e200, 0.0]}}, 3,
     "off-spectral kernel out of float range at degree 8"),
    ("kernel", "ellipse-expre", {"kernel": {**KERNEL, "w": [1e200, 0.0]}}, 3,
     "out of float range (|z| up to 1e+200)"),
    ("distributional", "disk-expre03",
     {"test_function": {"terms": [[-1200, -1200, 1.0, 0.0]]}}, 3,
     "[stage: oracle-collar] test function out of float range on the collar rule"),
    ("distributional", "ellipse-expre",
     {"test_function": {"terms": [[0, 0, 1e308, 0.0], [1, 1, 1e308, 0.0]]}}, 3,
     "boundary expansion of the test function out of float range at degree 8"),
    ("distributional", "ellipse-expre", {"test_function": {"terms": [[1e20, 0, 1.0, 0.0]]}}, 2,
     "(m, n) = (100000000000000000000, 0) is not below 2^62"),
    *[(command, "disk-expre03", {"domain": FOLDED}, 2,
       "psi' vanishes at |zeta| = 1.2, not below the univalence margin 0.98")
      for command in ("expand", "eval", "verify")],
    *[(command, "disk-expre03", NO_CUTOFF, 2,
       "rho = 0.96 leaves no room for the collar's cutoff, which rises from rho + 0.05")
      for command in ("verify", "distributional")],
    # inside the 2x1 ellipse, with phi below the univalence margin: Newton's
    # inversion cannot reach them, so neither is a point of the expansion
    ("kernel", "ellipse-expre", {"kernel": {**KERNEL, "w": [3.0, 0.0], "z": [0.1, 0.0]}}, 4,
     "point could not be mapped into the analytic collar"),
    ("kernel", "ellipse-expre", {"kernel": {**KERNEL, "w": [0.1, 0.0]}}, 4,
     "w = (0.1+0j) could not be mapped into the analytic collar"),
]


@pytest.mark.parametrize("command, preset, extra, code, message", ROBUSTNESS,
                         ids=["oracle-cap", "far-point", "centre-point", "far-kernel-z",
                              "far-kernel-w", "collar-overflow", "expansion-overflow",
                              "index-range", "folded-expand", "folded-eval", "folded-verify",
                              "cutoff-verify", "cutoff-distributional", "inner-kernel-z",
                              "inner-kernel-w"])
def test_robustness_table(tmp_path, capsys, command, preset, extra, code, message):
    cfg = write_config(tmp_path, preset, **extra)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == code
    err = capsys.readouterr().err
    assert message in err, err
    assert not out.exists()


def test_kernel_maps_z_before_it_builds_the_oracle(tmp_path, capsys, monkeypatch):
    # the formula column maps kernel.z, so a z inside the ellipse is refused
    # before a degree-120 oracle is built
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle was built before kernel.z was mapped")

    monkeypatch.setattr(cli, "boundary_onps", forbidden)
    cfg = write_config(tmp_path, "ellipse-expre", N=[8, 16, 120],
                       kernel={**KERNEL, "w": [3.0, 0.0], "z": [0.1, 0.0]})
    assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 4
    assert "point could not be mapped into the analytic collar" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"points": [[0.1, 0.0]]}, "could not be mapped into the analytic collar"),
    ({"points": [[1.9056, 0.0]]}, "below the validity radius"),   # psi(0.9)
    ({"N": [3, 8]}, "degree 3 below the asymptotic threshold"),
], ids=["unmappable-point", "point-below-validity-radius", "degree-below-threshold"])
def test_verify_checks_its_request_before_the_oracle(tmp_path, capsys, monkeypatch, extra,
                                                      message):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle was built before the request was checked")

    monkeypatch.setattr(cli, "boundary_onps", forbidden)
    cfg = write_config(tmp_path, "ellipse-expre", **({"N": [8, 16, 32, 64, 128],
                                                      "points": [[2.5, 0.5]]} | extra))
    assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 4
    err = capsys.readouterr().err
    assert message in err and "stage" not in err, err


def test_oracle_reads_the_map_and_P_alone(tmp_path, capsys, monkeypatch):
    # alpha = 8 needs more than M = 8 for the expansion's outer factor, not
    # for the boundary oracle, which builds no model
    domain = {"map": {"cap": 1.0, "tail": []},
              "weight": {"kind": "exp-re-linear", "alpha": 8}, "M": 8}
    cfg = write_config(tmp_path, domain=domain, N=[40])
    assert run(["expand", "--config", cfg, "--out", tmp_path / "e"]) == 3
    assert "[stage: outer-function]" in capsys.readouterr().err

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle built an expansion model")

    seen = []

    def capture(m, P, N):
        seen.append((m, P, N))
        return boundary_onps(m, P, N)

    monkeypatch.setattr(cli, "build_model", forbidden)
    monkeypatch.setattr(cli, "boundary_onps", capture)
    assert run(["oracle", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert json.loads((tmp_path / "o" / "oracle.json").read_text())["gram_residual"] <= 1e-12
    # on every preset the oracle gets the map and P the model would have
    for name in PRESETS:
        seen.clear()
        cfg = write_config(tmp_path, name, N=[8])
        assert run(["oracle", "--config", cfg, "--out", tmp_path / name]) == 0
        m, P, N = seen[0]
        model = preset_model(name, 0)
        assert m.cap == model.map.cap and np.array_equal(m.tail, model.map.tail), name
        assert N == 8 and np.array_equal(P, model.weight.holo_poly), name
        assert np.array_equal(P, model.weight.holo_poly), name


def test_kernel_band_maps_each_point_once(tmp_path, monkeypatch, mapped_points):
    # one map call each for w and z, however many degrees, and none for the
    # 17 band points, which the command reads at the preimages it builds; the
    # band's sup is the largest of the per-point values
    kc = {"w": [3.0, 0.0], "z": [2.5, 0.5], "rho": 0.5, "rho1": 0.7}
    for Ns in ([8], [8, 16, 32, 64, 128]):
        mapped_points.clear()
        cfg = write_config(tmp_path, "ellipse-expre", N=Ns, kernel=kc)
        assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 0
        sizes = [c.size for c in mapped_points]
        assert sizes == [1, 1], sizes
    monkeypatch.undo()
    m = preset_model("ellipse-expre", 0).map
    band = [m.psi(r * np.exp(0.37j)) for r in np.linspace(0.7, 1.0, 17)]
    rows = json.loads((tmp_path / "o" / "kernel.json").read_text())["diag_bound"]
    for row, N in zip(rows, Ns):
        want = max(planorth.bw_kernel_diag(0.5, m, N, z) for z in band)
        assert abs(row["sup"] / want - 1.0) <= 1e-14, N


def test_kernel_band_needs_no_inversion(tmp_path):
    # a band point psi(zeta) whose Newton inversion fails on this map is read
    # at its preimage zeta
    domain = {"map": {"cap": 1.0, "tail": [[-1.6885, -0.4314], [0.2872, 0.3879],
                                           [-0.1314, 0.0504]]},
              "weight": {"kind": "exp-re-linear", "alpha": [0.2, 0.0]}, "rho": 0.9047, "M": 32}
    kc = {"w": [4.0, 0.0], "z": [4.5, 0.5], "rho": 0.3, "rho1": 0.8767}
    m = geometry.load_domain_config(domain)[0]
    _, ok = geometry.map_forward_many(m, m.psi(np.linspace(0.8767, 1.0, 17) * np.exp(0.37j)))
    assert not ok.all()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": domain, "kappa": 1, "N": [8, 16], "kernel": kc}))
    assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 0
    rows = json.loads((tmp_path / "o" / "kernel.json").read_text())["diag_bound"]
    assert [r["N"] for r in rows] == [8, 16] and all(math.isfinite(r["sup"]) for r in rows)


def test_a_config_without_rho_takes_the_librarys_inner_radius(tmp_path):
    # margin 0.774: the config loader and build_model both default rho to
    # margin + 0.05, inside the collar, and a disk's default is 0.7
    domain = {"map": {"cap": 1.0, "tail": [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]]},
              "weight": {"kind": "exp-re-linear", "alpha": [0.2, 0.0]}}
    m, wd, rho, _M, _K = geometry.load_domain_config(domain)
    assert rho == expansion.build_model(m, wd, 1).inner_radius == m.univalence_margin + 0.05
    assert geometry.load_domain_config({**domain, "map": {"cap": 1.0}})[2] == 0.7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": domain, "kappa": 1}))
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 0


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"domain": ')
    assert run(["expand", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err


def test_config_without_domain_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kappa": 2, "N": [8]}))
    assert run(["oracle", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "config must contain a 'domain' object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_distributional_at_order_zero_is_the_leading_term(tmp_path):
    # kappa 0 keeps no correction term: every row is g_+(infinity)
    cfg = write_config(tmp_path, N=[8, 16],
                       test_function={"terms": [[1, 1, 0.3, 0.0], [2, 0, 0.1, 0.2]]})
    out = tmp_path / "o"
    assert run(["distributional", "--config", cfg, "--out", out, "--kappa", "0"]) == 0
    payload = json.loads((out / "distributional.json").read_text())
    assert payload["kappa"] == 0 and payload["terms_at_max_degree"] == []
    lead = payload["leading"]["plus_infinity"]
    assert lead == [0.3, 0.0]
    assert [r["expansion"] for r in payload["rows"]] == [lead, lead]


def _distributional_in_1_gib(cfg, out):
    """Exit code of ``planorth distributional`` in a child process held to
    1 GiB of address space, and its stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               OPENBLAS_NUM_THREADS="1")
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
            "from planorth import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           "distributional", "--config", str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr[-2000:]


def test_far_term_index_runs_in_bounded_memory(tmp_path):
    # the term z^1000000 meets no mode of the moment table, and the collar
    # reads it term by term: no (2 10^6 + 1)^2 grid, so 1 GiB of address
    # space is ample
    cfg = write_config(tmp_path, "ellipse-expre",
                       test_function={"terms": [[1000000, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]})
    code, err = _distributional_in_1_gib(cfg, tmp_path / "o")
    assert code == 0, err
    near = json.loads((tmp_path / "o" / "distributional.json").read_text())
    cfg = write_config(tmp_path, "ellipse-expre", test_function={"terms": [[1, 1, 1.0, 0.0]]})
    assert run(["distributional", "--config", cfg, "--out", tmp_path / "p"]) == 0
    alone = json.loads((tmp_path / "p" / "distributional.json").read_text())
    # the expansion side is bit-identical without the far term
    assert [r["expansion"] for r in near["rows"]] == [r["expansion"] for r in alone["rows"]]
    assert near["terms_at_max_degree"] == alone["terms_at_max_degree"]


@pytest.mark.parametrize("power, exit_code", [(1000000, 0), (-1000000, 3)])
def test_live_far_term_reads_its_own_moments(tmp_path, power, exit_code):
    # |z|^(2 power) is live at every degree: its products read the moments of
    # the modes from about power on, as many as alpha has, and the table holds
    # those rows and not the 10^6 between them and alpha's own; the negative
    # power leaves the float range on the collar and is refused, not a traceback
    cfg = write_config(tmp_path, "ellipse-expre",
                       test_function={"terms": [[power, power, 1.0, 0.0]]})
    code, err = _distributional_in_1_gib(cfg, tmp_path / "o")
    assert code == exit_code, err
    if exit_code:
        assert "out of float range" in err


def test_malformed_weight_coefficients_are_a_config_error(tmp_path, capsys):
    # a number where the coefficient list belongs: load_domain_config turns the
    # TypeError of iterating it into a config error, before anything is written
    domain = dict(preset_config("disk-const"), weight={"kind": "exp-re-poly", "coeffs": 5})
    cfg = write_config(tmp_path, domain=domain)
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "malformed config value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_distributional_contracts_once(tmp_path, monkeypatch):
    # the rows and the term table at max(N) come from one pass over the jet and
    # the moment table, and match the single-request functions bit for bit
    calls = []
    boundary_terms = planorth.distributional._boundary_terms

    def counted(model, split, degrees, order):
        calls.append(list(degrees))
        return boundary_terms(model, split, degrees, order)

    monkeypatch.setattr(planorth.distributional, "_boundary_terms", counted)
    terms = [[1, 1, 0.3, 0.0], [2, 0, 0.1, 0.2], [0, 3, 0.0, 0.25], [3, 1, 0.1, 0.0]]
    cfg = write_config(tmp_path, "ellipse-expre", N=[8, 16, 24], kappa=3,
                       test_function={"terms": terms})
    assert run(["distributional", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert calls == [[8, 16, 24]]
    monkeypatch.undo()
    payload = json.loads((tmp_path / "o" / "distributional.json").read_text())
    model = preset_model("ellipse-expre", 3)
    split = planorth.split_terms({(m, n): complex(re, im) for m, n, re, im in terms})
    want = planorth.distributional_expectations(model, split, [8, 16, 24])
    assert [r["expansion"] for r in payload["rows"]] == [[v.real, v.imag] for v in want]
    table = [{"nu": nu, "j": j, "k": k, "value": [v.real, v.imag]}
             for (nu, j, k), v in planorth.distributional_terms(model, split, 24)]
    assert payload["terms_at_max_degree"] == table


def test_kernel_computes_the_degree_free_parts_once(tmp_path, monkeypatch):
    # |phi'|^2 at the band and the outer factor at z are taken once per request,
    # however many degrees: psi' is formed once, at the band's preimages; the
    # per-degree values are those of the public functions
    calls = {"outer_rho": 0, "psi_prime": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(cli, "outer_rho", counting("outer_rho", cli.outer_rho))
    monkeypatch.setattr(geometry.ExteriorMap, "psi_prime",
                        counting("psi_prime", geometry.ExteriorMap.psi_prime))
    Ns = [8, 16, 32, 64]
    cfg = write_config(tmp_path, "ellipse-expre", N=Ns, kernel={**KERNEL, "w": [3.0, 0.5],
                                                                 "z": [2.5, 0.5]})
    assert run(["kernel", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert calls == {"outer_rho": 1, "psi_prime": 1}
    monkeypatch.undo()
    payload = json.loads((tmp_path / "o" / "kernel.json").read_text())
    model = preset_model("ellipse-expre", 2)
    pt = off_spectral_point(model.map, 3.0 + 0.5j)
    for row, N in zip(payload["offspectral"], Ns):
        assert row["formula_modulus"] == abs(offspectral_leading(model, pt, N, 2.5 + 0.5j)), N


def test_module_entry_point(tmp_path):
    # python -m planorth.cli runs main() and exits with its code
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def entry(*args):
        return subprocess.run([sys.executable, "-m", "planorth.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = entry("--version")
    assert proc.returncode == 0 and proc.stdout.strip() == planorth.__version__
    proc = entry("expand", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2 and "config error" in proc.stderr
