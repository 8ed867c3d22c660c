#!/usr/bin/env python3
"""Re-time the ROADMAP's baseline rows on ``ellipse-expre``, for comparison.

* model stages at kappa=4 (M=24): pullback, szego, solve_hierarchy,
  norm_expansion and the four ``hierarchy_residual`` calls;
* the six CLI commands at kappa=2, N=[8, 12, 16, 24, 32].

Each figure is the median of ``REPEATS`` in-process runs, BLAS pinned to one
thread.  Usage: ``python3 bench/anchor.py``
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import planorth as po  # noqa: E402
import planorth.cli  # noqa: E402

from workloads import PRESETS  # noqa: E402

COMMANDS = ("expand", "eval", "oracle", "verify", "distributional", "kernel")
REPEATS = 3


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def stages() -> dict:
    m, wd, rho, M, _K = po.load_domain_config(PRESETS["ellipse-expre"])
    out = {}
    out["pullback"], ws = timed(lambda: po.pullback_weight(m, wd, M, rho))
    out["szego"], sz = timed(lambda: po.szego(ws))
    out["solve_hierarchy"], coeffs = timed(lambda: po.solve_hierarchy(sz, 4))
    out["norm_expansion"], _ = timed(lambda: po.norm_expansion(sz, coeffs, 4))
    out["hierarchy_residual x4"], _ = timed(
        lambda: [po.hierarchy_residual(coeffs, sz, p) for p in range(1, 5)])
    return out


def commands(tmp: Path) -> dict:
    cfg = {"domain": PRESETS["ellipse-expre"], "kappa": 2, "N": [8, 12, 16, 24, 32],
           "points": [[3.0, 0.0]],
           "test_function": {"terms": [[1, 1, 1.0, 0.0], [0, 0, -1.0, 0.0]]},
           "kernel": {"w": [3.0, 0.0], "z": [3.5, 0.0], "rho": 0.5, "rho1": 0.7}}
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = {}
    for cmd in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            out[cmd], code = timed(lambda: planorth.cli.main(
                [cmd, "--config", str(path), "--out", str(tmp / cmd)]))
        if code != 0:
            raise SystemExit(f"{cmd} exited with {code}")
    return out


def main() -> int:
    runs = []
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for _ in range(REPEATS):
            runs.append({**stages(), **commands(Path(tmp))})
    for key in runs[0]:
        print(f"{key:24s} {statistics.median(r[key] for r in runs) * 1e3:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
