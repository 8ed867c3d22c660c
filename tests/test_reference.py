"""The five presets at kappa = 4 against the values frozen in
``bench/reference/presets_k4.json`` when the model was still built on a 2-D
bi-Laurent grid: old against new, without keeping the old algebra alive."""

import json
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "presets_k4.json"
REL_TOL = 1e-12   # the benchmark's rule: relative to max(1, |ref|)


def _close(got: dict, want: dict) -> None:
    scale = max([1.0] + [abs(v) for v in want.values()])
    dev = max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)),
              default=0.0)
    assert dev <= REL_TOL * scale, dev


def _modes(pairs) -> dict:
    return {int(k): complex(*v) for k, v in pairs}


def _series(c) -> dict:
    K = c.bandwidth
    return {k: complex(c.coeffs[K + k]) for k in range(-K, K + 1)}


@pytest.mark.parametrize("name", ["disk-const", "disk-expre03", "ellipse-const",
                                  "ellipse-expre", "perturbed-expre"])
def test_preset_matches_frozen_reference(all_preset_models, name):
    ref = json.loads(REFERENCE.read_text())[name]
    model = all_preset_models[name]
    assert model.order == 4
    for order in range(1, 5):
        _close(_series(model.coeffs.X[order]), _modes(ref["corrections"].get(str(order), [])))
    _close(_series(model.szego.v_exterior), _modes(ref["v_exterior"]))
    _close({0: model.szego.v_infinity}, {0: ref["v_infinity"]})
    _close(dict(enumerate(model.norm.d)), dict(enumerate(ref["d"])))
    _close(dict(enumerate(model.norm.raw)), dict(enumerate(ref["c"])))
