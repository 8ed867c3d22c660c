#!/usr/bin/env python3
"""Regenerate ``reference/presets_k4.json``: ``planorth expand`` at kappa=4 on
the five presets.  The committed file was made at the commit that introduced
the benchmark; regenerate it only on purpose, and say why.

Usage: ``python3 bench/make_reference.py``
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import planorth.cli  # noqa: E402

from workloads import PRESETS, reference_entry  # noqa: E402


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for name, domain in PRESETS.items():
            cfg, out = Path(tmp) / f"{name}.json", Path(tmp) / name
            cfg.write_text(json.dumps({"domain": domain, "kappa": 4}))
            with contextlib.redirect_stdout(io.StringIO()):
                code = planorth.cli.main(["expand", "--config", str(cfg), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"expand failed on {name} with exit code {code}")
            ref[name] = reference_entry(json.loads((out / "model.json").read_text()))
    (BENCH / "reference").mkdir(exist_ok=True)
    (BENCH / "reference" / "presets_k4.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
