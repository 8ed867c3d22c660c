"""Tests of the benchmark itself: seeded inputs, span arithmetic, output checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
REFERENCE = json.loads((ROOT / "bench" / "reference" / "presets_k4.json").read_text())


@pytest.fixture(scope="module")
def eval_sweep():
    return wl.EvalSweep(seed=3)


def _cli_workload(name, seed, tmp_path):
    return wl.make_workload(name, seed, tmp_path / f"{name}-{seed}", REFERENCE)


def _eval_inputs(ops):
    out = []
    for op in ops:
        inp = {k: v for k, v in op.inputs.items() if k != "split"}
        out.append((op.kind, op.label, json.dumps(
            {k: np.asarray(v).tolist() if not np.isscalar(v) else v for k, v in inp.items()},
            default=lambda c: [c.real, c.imag])))
    return out


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", ["expand-sweep", "oracle-check"])
def test_cli_inputs_repeat_per_seed(name, tmp_path):
    a = _cli_workload(name, 5, tmp_path).specs(0)
    b = _cli_workload(name, 5, tmp_path).specs(0)
    c = _cli_workload(name, 6, tmp_path).specs(0)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(c)
    assert json.dumps(a) != json.dumps(_cli_workload(name, 5, tmp_path).specs(1))


def test_eval_inputs_repeat_per_seed(eval_sweep):
    again = wl.EvalSweep.__new__(wl.EvalSweep)
    again.__dict__.update(eval_sweep.__dict__)
    assert _eval_inputs(eval_sweep.make_round(0)) == _eval_inputs(again.make_round(0))
    again.seed = 4
    assert _eval_inputs(eval_sweep.make_round(0)) != _eval_inputs(again.make_round(0))


def test_expand_design_covers_the_ranges(tmp_path):
    specs = _cli_workload("expand-sweep", 9, tmp_path).specs(0)
    presets = [s for s in specs if "preset" in s[3]]
    assert sorted(s[3]["preset"] for s in presets) == sorted(wl.PRESETS)
    assert all(s[2]["kappa"] == 4 for s in presets)
    rest = [s[2] for s in specs if "preset" not in s[3]]
    assert len(rest) == 60
    assert {c["kappa"] for c in rest} == {1, 2, 3, 4}
    assert {c["domain"]["M"] for c in rest} == {16, 24}
    for c in rest:
        weight, cmap = c["domain"]["weight"], c["domain"]["map"]
        if weight["kind"] == "exp-re-linear":
            assert math.hypot(*weight["alpha"]) <= 0.5
        if weight["kind"] == "exp-re-poly":
            assert all(math.hypot(*x) <= 0.5 for x in weight["coeffs"])
        if len(cmap["tail"]) > 2:
            assert math.hypot(*cmap["tail"][-1]) <= 0.12


def test_eval_points_lie_at_boundary_scale(eval_sweep):
    for op in eval_sweep.make_round(0):
        if op.kind == "eval":
            N = op.inputs["N"]
            t = (np.abs(op.expect["zeta"]) - 1.0) * N / math.log(N)
            assert 8 <= N <= 10000 and np.all((t >= -1 - 1e-9) & (t <= 2 + 1e-9))


# -- spans -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [["a", 0.0, 10.0, -1, True],
             ["b", 1.0, 4.0, 0, True],
             ["c", 2.0, 3.0, 1, True],
             ["b", 5.0, 9.0, 0, True],
             [tracing.COUNTER_SPAN, 9.0, 9.5, 0, True],
             ["r", 20.0, 30.0, -1, True],
             ["r", 22.0, 26.0, 5, False]]
    s = tracing.summarize(spans)
    assert s["a"] == {"calls": 1, "self_s": 2.5, "total_s": 10.0}
    assert s["b"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}
    assert s["c"]["self_s"] == 1.0
    assert s["r"] == {"calls": 2, "self_s": 10.0, "total_s": 10.0}
    assert tracing.COUNTER_SPAN not in s


def test_tracer_patches_every_binding_and_restores_it():
    import planorth
    import planorth.hierarchy
    import planorth.series
    original = planorth.series.multiply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert planorth.hierarchy.multiply is planorth.series.multiply is planorth.multiply
        assert planorth.series.multiply is not original
        a = planorth.annulus_from_terms({(1, 0): 1.0, (0, 1): 2.0}, 4, 0.5)
        a * a
    finally:
        tracer.uninstall()
    assert planorth.series.multiply is original and planorth.hierarchy.multiply is original
    assert [s[0] for s in tracer.spans] == ["series.annulus_from_terms", "series.multiply",
                                             tracing.COUNTER_SPAN]
    assert tracer.counts["series.multiply.products"] == 4
    assert tracer.counts["series.multiply.out_nonzeros"] == 3


def test_tail_latency_rule():
    assert run.tail_latency(list(range(11))) == (0, 100 * 1 / 11, 10)
    assert run.tail_latency(list(range(100)))[:2] == (89, 90.0)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_timings_take_the_median_run_of_each_operation():
    lats = [1.0, 4.0, 3.0, 4.0, 2.0, 100.0]    # three passes of two operations
    t = run.timings(lats, [None] * 6, 2, [1.0])
    assert (t["ops_per_s"], t["op_p50_s"], t["samples"]) == (2 / 6, 3.0, 2)
    fails = [None, None, None, ["exception", "x"], None, None]
    t = run.timings(lats, fails, 2, [1.0])
    assert (t["ops_per_s"], t["op_p50_s"], t["samples"]) == (1 / 6, 2.0, 1)


def test_failures_count_each_operation_once():
    x, y = ["exception", "a"], ["nonfinite", "b"]
    fails = [None, x, None, None, x, y]          # two passes of three operations
    kinds, examples, runs = run.op_outcomes(fails, 3)
    assert kinds == {"exception": 1, "nonfinite": 1}
    assert examples == {"exception": ["a"], "nonfinite": ["b"]}
    assert runs == 3


def test_timings_scale_with_the_host_factor():
    lats = [0.1 * (i % 7 + 1) for i in range(40)]
    fails = [None] * 39 + [["exception", "x"]]
    raw = run.timings(lats, fails, 20, [1.0, 3.0, 2.0])
    slow = run.timings([2 * lat for lat in lats], fails, 20, [2.0, 6.0, 4.0])
    assert slow["ops_per_s"] == pytest.approx(raw["ops_per_s"] / 2)
    for name in ("op_p50_s", "op_tail_s", "setup_s"):
        assert slow[name] == pytest.approx(2 * raw[name])
    assert raw["setup_s"] == 2.0


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    meta = json.loads((ROOT / "bench" / "workloads.json").read_text())
    assert sorted(meta) == sorted(run.WORKLOADS)


# -- output checks -----------------------------------------------------------


class _Raises:
    typed_error = wl.CheckFailure

    def __init__(self, exc):
        self.exc = exc

    def run(self, op):
        raise self.exc

    def check(self, op, out):
        raise AssertionError("not reached")


def test_attempt_counts_bare_and_typed_exceptions():
    op = wl.Op("eval", "x", {})
    assert wl.attempt(_Raises(OverflowError("boom")), op)[1][0] == "exception"
    assert wl.attempt(_Raises(wl.CheckFailure("k", "d")), op)[1][0] == "typed_error"


def _expand_op(tmp_path, preset):
    work = _cli_workload("expand-sweep", 1, tmp_path)
    spec = [("expand", preset, {"domain": wl.PRESETS[preset], "kappa": 4},
             {"preset": preset, "const_weight": preset.endswith("const")})]
    op = work.write_configs(0, spec)[0]
    latency, failure = wl.attempt(work, op)
    assert failure is None
    return work, op, Path(op.inputs["out"]) / "model.json"


def _plant(path, edit):
    model = json.loads(path.read_text())
    edit(model)
    path.write_text(json.dumps(model))


@pytest.mark.parametrize("preset", ["disk-const", "disk-expre03"])
@pytest.mark.parametrize("plant,kind", [
    (lambda m: m["norm"]["d"].__setitem__(1, m["norm"]["d"][1] + 1e-9), "wrong_value"),
    (lambda m: m["norm"]["d"].__setitem__(0, float("nan")), "nonfinite"),
    (lambda m: m["diagnostics"]["hierarchy_residuals"].__setitem__(0, 1e-6), "wrong_value"),
])
def test_expand_check_rejects_planted_values(tmp_path, preset, plant, kind):
    work, op, path = _expand_op(tmp_path, preset)
    _plant(path, plant)
    with pytest.raises(wl.CheckFailure) as err:
        work.check_artifacts(op, path.parent)
    assert err.value.kind == kind


def test_expand_check_rejects_a_planted_correction(tmp_path):
    work, op, path = _expand_op(tmp_path, "disk-expre03")
    _plant(path, lambda m: m["corrections"][0]["coeffs"][0].__setitem__(
        0, m["corrections"][0]["coeffs"][0][0] + 1e-9))
    with pytest.raises(wl.CheckFailure, match="X_1"):
        work.check_artifacts(op, path.parent)


def _oracle_artifacts(tmp_path, kind, **change):
    work = _cli_workload("oracle-check", 1, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    op = wl.Op(kind, "synthetic", {"out": str(out)}, {"kappa": 1, "n_max": 24, "g_l1": 1.0})
    if kind == "verify":
        summary = {"schema": "planorth/verify-summary-v1", "passed": True, "tolerance": 0.35,
                   "slopes": {"0": {"slope": -1.0}}, "oracle_gram_residual": 1e-15}
        summary.update(change)
        (out / "summary.json").write_text(json.dumps(summary))
        (out / "rates.csv").write_text("N,kappa,e,l2,k\n8,0,0.1,0.1,0.01\n")
    else:
        rows = [{"N": 8, "expansion": [0.1, 0], "oracle": [0.1, 0], "abs_error": 1e-2},
                {"N": 24, "expansion": [0.1, 0], "oracle": [0.1, 0], "abs_error": 1e-3}]
        rows[-1].update(change)
        dist = {"schema": "planorth/distributional-v1", "kappa": 1, "leading": {},
                "rows": rows, "terms_at_max_degree": []}
        (out / "distributional.json").write_text(json.dumps(dist))
    return work, op, out


@pytest.mark.parametrize("kind,change,failure", [
    ("verify", {"passed": False}, "wrong_value"),
    ("verify", {"oracle_gram_residual": 1e-6}, "wrong_value"),
    ("verify", {"oracle_gram_residual": float("nan")}, "nonfinite"),
    ("distributional", {"abs_error": 0.5}, "wrong_value"),
    ("distributional", {"abs_error": float("nan")}, "nonfinite"),
])
def test_oracle_check_rejects_planted_values(tmp_path, kind, change, failure):
    work, op, out = _oracle_artifacts(tmp_path, kind)
    work.check_artifacts(op, out)
    work, op, out = _oracle_artifacts(tmp_path / "planted", kind, **change)
    with pytest.raises(wl.CheckFailure) as err:
        work.check_artifacts(op, out)
    assert err.value.kind == failure


def test_oracle_check_reports_the_failing_stage():
    err = "numerical validation failure [verify]: [stage: oracle] Gram residual 1e-3"
    with pytest.raises(wl.CheckFailure, match="exit 3 at oracle"):
        wl.CliWorkload.check(None, wl.Op("verify", "x", {}), (3, err))


def _checked_eval_op(eval_sweep, kind):
    op = next(o for o in eval_sweep.make_round(0)
              if o.kind == kind and o.label == "ellipse-expre"
              and (kind != "eval" or o.inputs["N"] < 1500))
    latency, failure = wl.attempt(eval_sweep, op)
    assert failure is None
    return op, eval_sweep.run(op)


def _assert_rejected(eval_sweep, op, planted, expected):
    with pytest.raises(wl.CheckFailure) as err:
        eval_sweep.check(op, planted)
    assert err.value.kind == expected


@pytest.mark.parametrize("kind", ["eval", "offspectral", "bw_diag"])
def test_eval_check_rejects_planted_values(eval_sweep, kind):
    op, out = _checked_eval_op(eval_sweep, kind)
    _assert_rejected(eval_sweep, op, out * (1 + 1e-6), "wrong_value")
    _assert_rejected(eval_sweep, op, out * float("nan"), "nonfinite")


def test_distributional_check_rejects_planted_values(eval_sweep):
    op, out = _checked_eval_op(eval_sweep, "distributional")
    model, N = eval_sweep.models[op.label], op.inputs["N"]
    mean, corr, _ = wl.reference_distributional(
        model, eval_sweep.moments[op.label], op.expect["terms"], N)
    assert abs(out - mean) > 1e-6
    planted = {"real offset": out + 1e-9, "imaginary offset": out + 1e-9j,
               "corrections dropped": mean, "corrections negated": 2 * mean - out,
               "norm factor dropped": mean + (out - mean) / wl.norm_factor(model, N) ** 2}
    for what, value in planted.items():
        with pytest.raises(wl.CheckFailure) as err:
            eval_sweep.check(op, value)
        assert err.value.kind == "wrong_value", what
    _assert_rejected(eval_sweep, op, out * float("nan"), "nonfinite")


def test_zero_part_vanishes_on_the_circle():
    terms = wl.real_test_function(wl.round_rng("t", 1, 0))
    g0 = wl.zero_part(terms)
    zs = np.exp(2j * np.pi * np.arange(16) / 16)
    vals = sum(c * zs ** m * np.conj(zs) ** n for (m, n), c in g0.items())
    assert np.max(np.abs(vals)) < 1e-15


def test_eval_sweep_counts_the_large_degree_overflow(eval_sweep):
    op = next(o for o in eval_sweep.make_round(0)
              if o.kind == "eval" and o.label.startswith("ellipse") and o.inputs["N"] > 2000)
    latency, failure = wl.attempt(eval_sweep, op)
    assert failure[0] == "exception" and "OverflowError" in failure[1]
    # the true value is moderate (|phi|^N <= N^2 at boundary scale); only cap^(N+1) overflows
    ref = wl.reference_normalized(eval_sweep.models[op.label], op.inputs["N"],
                                  op.expect["zeta"])
    assert np.all(np.isfinite(ref)) and np.max(np.abs(ref)) < 1e12
