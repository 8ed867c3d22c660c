#!/usr/bin/env python3
"""Layered benchmark for planorth.

Usage (from the repository root)::

    python3 bench/run.py --workload expand-sweep --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop with one client: one worker process, BLAS
pinned to one thread, which starts the next operation only after the previous
one has been checked.  The seed fixes one set of operations, the workload's
first ``ROUNDS`` rounds (see ``workloads.py``).  The worker runs the whole set
once, then repeats it in whole passes until another pass would overrun
``--seconds``.  Only the program call of an operation is timed; the output
checks run outside it, on every pass.  ``attempted`` and ``failed`` count the
distinct operations of the set (an operation fails if any of its runs fails),
so they do not depend on how many passes fit in the time.

``--trace 0`` reports the end-to-end metrics.  The latency of an operation
is the median of its runs (one per pass); ``op_p50_s`` and ``op_tail_s`` are
taken over the completed operations of the set, and ``ops_per_s`` is the
number completed over the sum of all their latencies: completed operations
per second of a typical pass.  ``setup_s`` (process start to the first timed
operation: imports, input generation and model builds) is the median over
``SETUP_SAMPLES`` processes.

The timings are given at the reference speed of the host.  On a shared
virtual machine the same work can take 1.8 times as long from one second to
the next, and its half-minute means drift by a fifth over a few minutes, in
wall and CPU time alike, because other tenants contend for the cores.  So
each process also times a fixed piece of work that does not touch planorth
(``host_sample``: an interpreted loop and small complex matrix products),
between operations, about once per ``HOST_EVERY_S`` seconds.  Every latency
and set-up time is divided by the run's host factor, the median sample over
``HOST_REF_S`` (the set-up processes run just before the measuring one).
The raw figures and the factor are kept in the results record.

``--trace 1`` runs the set three times -- traced, untraced, traced --
with wrappers around every public planorth function (``tracing.py``), and
reports per-layer self/total times and exact work counts from the second
traced pass, the tracing overhead (traced minus untraced busy time) and the
number of counts that differ between the two traced passes.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts every failure kind;
``correct`` is false when an operation returned a finite value that its
check rejected.  Full records, with the machine and the failures by kind, go
to ``.bench_out/results/``; spans of traced runs to ``.bench_out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference" / "presets_k4.json"

WORKLOADS = ("expand-sweep", "oracle-check", "eval-sweep")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
DEADLINE_S = 170.0
HOST_EVERY_S = 0.4          # one host-speed sample per this much run time
HOST_REF_S = 0.016          # median host_sample time on the baseline host (BASELINE.md)

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ok_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("series.multiply.calls", "count"), ("series.multiply.self_s", "s"),
    ("series.multiply.products", "count"), ("series.multiply.out_density", "ratio"),
    ("series.series_exp.self_s", "s"), ("geometry.szego.self_s", "s"),
    ("geometry.pullback_weight.self_s", "s"),
    ("hierarchy.solve_hierarchy.total_s", "s"), ("hierarchy.hierarchy_residual.total_s", "s"),
    ("hierarchy.weighted_derivative.calls", "count"),
    ("hierarchy.weighted_derivative.total_s", "s"),
    ("laplace.norm_expansion.total_s", "s"),
    ("oracle.build_quadrature.self_s", "s"), ("oracle.build_quadrature.nodes", "count"),
    ("oracle.oracle_onps.self_s", "s"), ("oracle.oracle_onps.degree", "count"),
    ("oracle.OraclePolynomials.evaluate.self_s", "s"),
    ("oracle.OraclePolynomials.evaluate.point_degrees", "count"),
    ("oracle.l2_discrepancy.calls", "count"), ("oracle.l2_discrepancy.self_s", "s"),
    ("oracle.berezin_expectation.self_s", "s"),
    ("geometry.map_forward_many.points", "count"), ("geometry.map_forward_many.self_s", "s"),
    ("geometry.map_forward_many.unique_ratio", "ratio"),
    ("series.CircleSeries.evaluate.points", "count"),
    ("series.CircleSeries.evaluate.self_s", "s"),
    ("series.AnnulusSeries.evaluate.points", "count"),
    ("series.AnnulusSeries.evaluate.self_s", "s"),
    ("expansion.normalized_eval.points", "count"), ("expansion.normalized_eval.self_s", "s"),
    ("expansion.monic_eval.self_s", "s"),
    ("distributional.distributional_expectation.total_s", "s"),
    ("distributional.w_operator.calls", "count"),
    ("kernels.offspectral_leading.self_s", "s"), ("kernels.bw_kernel_diag.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"), ("trace.count_mismatches", "count"),
)

# Ratios of two counters: metric -> (numerator, denominator).
RATIOS = {"series.multiply.out_density": ("series.multiply.out_nonzeros",
                                          "series.multiply.out_cells"),
          "geometry.map_forward_many.unique_ratio": ("geometry.map_forward_many.distinct",
                                                     "geometry.map_forward_many.points")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def tail_latency(samples: list, beyond: int = TAIL_BEYOND):
    """Value at the highest percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``; with ``beyond`` or fewer
    samples no such percentile exists and the maximum is returned.
    """
    s = sorted(samples)
    n = len(s)
    if n > beyond:
        return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond
    return s[-1], 100.0, 0




def timings(lats: list, fails: list, n_ops: int, setups: list) -> dict:
    """The timing metrics of a run from the latencies of its passes (``n_ops``
    runs each) and its set-up times.  An operation's latency is the median of
    its runs; an operation fails if any of its runs fails."""
    per_op = [statistics.median(lats[i::n_ops]) for i in range(n_ops)]
    failed = [any(f is not None for f in fails[i::n_ops]) for i in range(n_ops)]
    sample = [lat for lat, bad in zip(per_op, failed) if not bad] or per_op
    tail, pct, beyond = tail_latency(sample)
    return {"ops_per_s": (n_ops - sum(failed)) / sum(per_op),
            "op_p50_s": statistics.median(sample), "op_tail_s": tail,
            "samples": len(sample), "tail_percentile": pct, "tail_beyond": beyond,
            "setup_s": statistics.median(setups)}


def op_outcomes(fails: list, n_ops: int):
    """Failures by kind over the distinct operations of a set run in passes.

    ``fails`` lists the failure (or ``None``) of every run, pass after pass,
    ``n_ops`` runs per pass.  An operation counts once, under the kind of its
    first failing run.  Returns ``(kinds, examples, failed_runs)``.
    """
    kinds: dict = {}
    examples: dict = {}
    for i in range(n_ops):
        f = next((f for f in fails[i::n_ops] if f is not None), None)
        if f is not None:
            kinds[f[0]] = kinds.get(f[0], 0) + 1
            some = examples.setdefault(f[0], [])
            if len(some) < 5:
                some.append(f[1])
    return kinds, examples, sum(f is not None for f in fails)


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metric values from span summaries and counters."""
    out = {}
    for name, _unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
            continue
        fn, quantity = name.rsplit(".", 1)
        if quantity in ("calls", "self_s", "total_s"):
            out[name] = summary.get(fn, {}).get(quantity, 0)
        else:
            out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# worker (runs in its own process with BLAS threads pinned)


def machine_info() -> dict:
    import platform

    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "planorth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "planorth_commit": git_commit(ROOT),
            "planorth_source_sha256": digest.hexdigest()}


def git_commit(root: Path):
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_planorth() -> None:
    sys.path.insert(0, str(SRC))
    import planorth
    if Path(planorth.__file__).resolve().parent != (SRC / "planorth").resolve():
        raise SystemExit(f"planorth imported from {planorth.__file__}, not {SRC}")


def host_sample() -> float:
    """Seconds taken by a fixed piece of work that does not touch planorth."""
    import numpy as np
    b = (np.arange(48 * 48).reshape(48, 48) % 7 - 3) / 48 + 0j
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = b
    for _ in range(100):
        a = a @ b
        a /= np.abs(a).max()
    return time.perf_counter() - t0


class HostSpeed:
    """Host-speed samples taken between operations, one per ``HOST_EVERY_S``."""

    def __init__(self):
        self.samples = []
        self.due = time.perf_counter()

    def sample_if_due(self) -> None:
        while time.perf_counter() >= self.due:
            self.samples.append(host_sample())
            self.due += HOST_EVERY_S

    def factor(self) -> float:
        """How many times slower than the reference the host ran."""
        return statistics.median(self.samples) / HOST_REF_S


def run_ops(workload, ops, tracer=None, host=None):
    """Attempt each operation; return ``(latencies, failures)``."""
    from workloads import attempt
    lats, fails = [], []
    for op in ops:
        latency, failure = attempt(workload, op)
        lats.append(latency)
        fails.append(failure and [failure[0], f"{op.kind} {op.label}: {failure[1]}"])
        if tracer is not None:
            tracer.end_operation()
            tracer.counts["cli.bytes_written"] += workload.bytes_written(op)
        workload.cleanup(op)
        if host is not None:
            host.sample_if_due()
    return lats, fails


def worker(args) -> dict:
    import_planorth()
    import workloads
    reference = json.loads(REFERENCE.read_text())
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    def setup():
        wl = workloads.make_workload(args.workload, args.seed, workdir, reference)
        return wl, [op for r in range(wl.ROUNDS) for op in wl.make_round(r)]

    try:
        if args.worker == "setup":
            setup()
            return {"setup_s": time.monotonic() - args.t0}
        if args.trace:
            return trace_worker(args, setup)
        wl, ops = setup()
        setup_s = time.monotonic() - args.t0
        host = HostSpeed()
        start, passes, lats, fails = time.monotonic(), 0, [], []
        while True:
            p0 = time.monotonic()
            lat, fail = run_ops(wl, ops, host=host)
            lats += lat
            fails += fail
            passes += 1
            now = time.monotonic()
            if now - start + (now - p0) > args.seconds:
                break
        return {"setup_s": setup_s, "host_factor": host.factor(),
                "host_samples": len(host.samples), "passes": passes, "ops": len(ops),
                "wall_s": time.monotonic() - start, "latencies": lats, "failures": fails,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "machine": machine_info()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_worker(args, setup) -> dict:
    """The operation set traced, untraced, traced: spans, counts and overhead."""
    from tracing import Tracer, summarize

    def one_pass(traced: bool):
        tracer = Tracer() if traced else None
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            wl, ops = setup()
            setup_busy = time.perf_counter() - t0
            if traced:
                tracer.end_operation()
            lats, fails = run_ops(wl, ops, tracer)
        finally:
            if traced:
                tracer.uninstall()
        return setup_busy + sum(lats), tracer, lats, fails

    busy_a, tr_a, _, _ = one_pass(True)
    busy_u, _, lats, fails = one_pass(False)
    busy_b, tr_b, _, _ = one_pass(True)
    mismatched = sorted(k for k in set(tr_a.counts) | set(tr_b.counts)
                        if tr_a.counts.get(k) != tr_b.counts.get(k))
    sum_a, sum_b = summarize(tr_a.spans), summarize(tr_b.spans)
    mismatched += sorted(f"{k}.calls" for k in set(sum_a) | set(sum_b)
                         if sum_a.get(k, {}).get("calls") != sum_b.get(k, {}).get("calls"))
    metrics = layer_metrics(sum_b, tr_b.counts)
    metrics["trace.overhead_s"] = (busy_a + busy_b) / 2 - busy_u
    metrics["trace.count_mismatches"] = len(mismatched)
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"spans": [s[:4] for s in tr_b.spans], "summary": sum_b, "counts": dict(tr_b.counts)}))
    return {"passes": 1, "ops": len(lats), "latencies": lats, "failures": fails,
            "layers": metrics,
            "mismatched_counts": mismatched,
            "busy_s": {"traced_a": busy_a, "untraced": busy_u, "traced_b": busy_b},
            "machine": machine_info()}


# ---------------------------------------------------------------------------
# parent process


def spawn(args, role: str, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **{k: BLAS_THREADS for k in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--worker", role, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if not (SRC / "planorth" / "__init__.py").is_file():
        print(f"bench: planorth sources not found under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, "setup", DEADLINE_S)["setup_s"])
        res = spawn(args, "run", DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    lats, fails, n_ops = res["latencies"], res["failures"], res["ops"]
    kinds, examples, runs = op_outcomes(fails, n_ops)
    attempted, failed = n_ops, sum(kinds.values())
    correct = "wrong_value" not in kinds
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "client": "closed loop, 1 client, 1 process",
              "machine": res["machine"], "attempted": attempted, "failed": failed,
              "passes": res["passes"], "failure_kinds": kinds, "failure_examples": examples,
              "failed_runs": runs}
    print(f"machine: {json.dumps(res['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations attempted, "
          f"{failed} failed {kinds or ''}; {res['passes']} passes, {len(lats)} runs")
    for kind, some in examples.items():
        print(f"  {kind}: {some[0]}")

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        record.update(busy_s=res["busy_s"], mismatched_counts=res["mismatched_counts"])
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        if res["mismatched_counts"]:
            print(f"counts that differ between the two traced passes: "
                  f"{res['mismatched_counts']}")
    else:
        setups.append(res["setup_s"])
        host = res["host_factor"]
        raw = timings(lats, fails, n_ops, setups)
        values = timings([lat / host for lat in lats], fails, n_ops, [s / host for s in setups])
        values.update(ok_frac=1.0 - failed / attempted, peak_rss_mb=res["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        n, pct, beyond = values["samples"], values["tail_percentile"], values["tail_beyond"]
        record.update(wall_s=res["wall_s"], setup_samples=setups, host_factor=host,
                      host_samples=res["host_samples"], raw_timings=raw, latency_samples=n,
                      tail_percentile=pct, tail_samples_beyond=beyond,
                      fail_frac=1.0 - values["ok_frac"])
        print(f"host factor {host:.4g} (median of {res['host_samples']} samples); "
              f"timings below at reference host speed, raw in brackets")
        print(f"ops_per_s = {values['ops_per_s']:.6g} 1/s [{raw['ops_per_s']:.6g}] ({n} of "
              f"{n_ops} operations completed, each the median of {res['passes']} runs; "
              f"{sum(lats):.3f} s timed)")
        print(f"op_p50_s = {values['op_p50_s']:.6g} s [{raw['op_p50_s']:.6g}] (n = {n})")
        print(f"op_tail_s = {values['op_tail_s']:.6g} s [{raw['op_tail_s']:.6g}] "
              f"(p{pct:.2f}, {beyond} samples beyond, n = {n})")
        print(f"fail_frac = {record['fail_frac']:.6g} ratio; ok_frac = "
              f"{values['ok_frac']:.6g} ratio")
        print(f"setup_s = {values['setup_s']:.6g} s [{raw['setup_s']:.6g}] "
              f"(median of {len(setups)})")
        print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB")
    record["metrics"] = metrics
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
