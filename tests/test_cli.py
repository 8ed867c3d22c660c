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
from planorth import cli, geometry
from planorth.errors import ConfigError, NonFiniteError
from planorth.expansion import positioning_factor
from planorth.kernels import off_spectral_point, offspectral_leading
from planorth.oracle import OraclePolynomials, boundary_onps
from planorth.presets import preset_config

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
        "sample-degree-negative", "N-not-list", "N-string", "points-not-list",
        "kernel-not-object", "terms-not-list", "test-function-not-object",
        "kernel-rho1-exterior", "kernel-rho-not-below-one", "kernel-rho1-not-above-rho",
        "kernel-rho-not-positive", "kernel-rho1-inside-margin"])
def test_malformed_field_is_config_error(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path, **extra)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("K, code", [(2.7, 2), (True, 2), (32, 0), (48, 0)])
def test_K_is_parsed_as_an_integer(tmp_path, capsys, K, code):
    # a fractional or boolean K is refused and named, not truncated to 2 or 1
    cfg = write_config(tmp_path, domain={**preset_config("disk-expre03"), "K": K})
    assert run(["expand", "--config", cfg, "--out", tmp_path / "o"]) == code
    assert ("[stage: config] K must be" in capsys.readouterr().err) == (code == 2)


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
    # direct recomputation of the boundary Gram matrix <P_k, P_j> = mean(P_k e^P conj(B_j) dz)
    # from the samples and primitives: row and column n of the leading (n+1) x (n+1) block
    polys = boundary_onps(disk_alpha_model.map, disk_alpha_model.weight.holo_poly, 8)
    rule = polys.rule
    gram = np.array([[np.mean(polys.basis[:, k] * rule.e_p * np.conj(polys.primitive[:, j])
                              * rule.dz) for k in range(9)] for j in range(9)])
    dev = np.abs(gram - np.eye(9))
    direct = [max(dev[:n + 1, n].max(), dev[n, :n + 1].max()) for n in range(9)]
    assert np.max(np.abs(np.array(column) - direct)) <= 1e-14
    assert payload["rule"] == {"kind": "boundary", "L": rule.L, **{
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
    errors = np.loadtxt(out / "rates.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.all(errors <= cli.EXACT_FLOOR)


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
    """Every point sent through ``map_forward_many``, whichever planorth module
    calls it: one array per call."""
    calls = []
    original = geometry.map_forward_many

    def counting(m, zs, *args, **kwargs):
        calls.append(np.array(zs, dtype=complex).ravel())
        return original(m, zs, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("planorth") and getattr(module, "map_forward_many", None) is original:
            monkeypatch.setattr(module, "map_forward_many", counting)
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
        scale = planorth.monic_prefactor(model, N) * abs(positioning_factor(model, N, zeta[0]))
        want = abs(p0[N] / polys.kappa[N] - planorth.monic_at(model, N, zeta, order=k)[0]) / scale
        assert abs(perr - want) <= 1e-12, (N, k, perr, want)
        assert krel == abs(planorth.leading_coeff(model, N, k) / polys.kappa[N] - 1.0), (N, k)


def test_verify_evaluates_each_correction_once(tmp_path, monkeypatch):
    # X_0 .. X_kappa at the point once per command, V once per degree, and no
    # partial sum formed as a series
    models = _captured(monkeypatch, "build_model")
    evaluate = planorth.CircleSeries.evaluate
    calls = {"X": [], "V": 0, "other": 0}

    def counted_evaluate(self, z):
        if np.size(z) == 1:
            model = models[0]
            j = next((j for j, x in enumerate(model.coeffs.X) if x is self), None)
            if j is not None:
                calls["X"].append(j)
            else:
                calls["V" if self is model.szego.v_exterior else "other"] += 1
        return evaluate(self, z)

    monkeypatch.setattr(planorth.CircleSeries, "evaluate", counted_evaluate)
    cfg = write_config(tmp_path, "perturbed-expre", kappa=3, N=[8, 12, 16, 24])
    assert run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert calls == {"X": [0, 1, 2, 3], "V": 4, "other": 0}


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
    # model.json holds the norm constants only, which read mode 0 of the table
    built = []

    def capture(*args, **kwargs):
        built.append(planorth.expansion.build_model(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_model", capture)
    assert run(["expand", "--config", write_config(tmp_path), "--out", tmp_path / "o"]) == 0
    assert len(built) == 1 and "moments" not in built[0].norm.__dict__


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
ROBUSTNESS = [
    ("distributional", "ellipse-expre",
     {"N": [8, 16, 100000], "test_function": {"terms": [[1, 1, 1.0, 0.0]]}}, 3,
     "[stage: oracle] boundary oracle at degree 100000 needs L = 524288 circle samples"),
    ("verify", "ellipse-expre", {"points": [[1e200, 0.0]]}, 3,
     "out of float range (|z| up to 1e+200)"),
    ("verify", "disk-expre03", {"points": [[0.0, 0.0]]}, 4,
     "point could not be mapped into the analytic collar"),
    ("kernel", "ellipse-expre", {"kernel": {**KERNEL, "w": [3.0, 0.0], "z": [1e200, 0.0]}}, 3,
     "out of float range (|z| up to 1e+200)"),
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
]


@pytest.mark.parametrize("command, preset, extra, code, message", ROBUSTNESS,
                         ids=["oracle-cap", "far-point", "centre-point", "far-kernel-z",
                              "far-kernel-w", "collar-overflow", "expansion-overflow",
                              "index-range", "folded-expand", "folded-eval", "folded-verify"])
def test_robustness_table(tmp_path, capsys, command, preset, extra, code, message):
    cfg = write_config(tmp_path, preset, **extra)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == code
    err = capsys.readouterr().err
    assert message in err, err
    assert not out.exists()


def test_far_term_index_runs_in_bounded_memory(tmp_path):
    # the term z^1000000 meets no mode of the moment table, and the collar
    # reads it term by term: no (2 10^6 + 1)^2 grid, so 1 GiB of address
    # space is ample
    cfg = write_config(tmp_path, "ellipse-expre",
                       test_function={"terms": [[1000000, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               OPENBLAS_NUM_THREADS="1")
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
            "from planorth import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           "distributional", "--config", str(cfg), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    near = json.loads((tmp_path / "o" / "distributional.json").read_text())
    cfg = write_config(tmp_path, "ellipse-expre", test_function={"terms": [[1, 1, 1.0, 0.0]]})
    assert run(["distributional", "--config", cfg, "--out", tmp_path / "p"]) == 0
    alone = json.loads((tmp_path / "p" / "distributional.json").read_text())
    # the expansion side is bit-identical without the far term
    assert [r["expansion"] for r in near["rows"]] == [r["expansion"] for r in alone["rows"]]
    assert near["terms_at_max_degree"] == alone["terms_at_max_degree"]
