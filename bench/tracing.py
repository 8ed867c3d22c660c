"""Span tracing of planorth's public functions, from outside the package.

A :class:`Tracer` replaces each traced function at every module attribute that
refers to it (callers bind names at import, so patching only the defining
module would miss ``planorth.hierarchy.multiply`` and friends) and restores
the originals on :meth:`Tracer.uninstall`.  Each call records a span
``[name, start, end, parent, outermost]`` in memory; nothing is written until
the run ends.  Counters attached to a function add exact work counts (points,
products, nodes, ...) computed from the call's arguments and result.  The time
a counter takes is recorded as a ``<counter>`` child span, so it is excluded
from the self time of the function that was running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("series", "geometry", "hierarchy", "laplace", "expansion", "oracle",
           "distributional", "kernels", "presets", "cli")

# Public methods traced in addition to every public module-level function.
METHODS = (("series", "CircleSeries", "evaluate"),
           ("series", "AnnulusSeries", "evaluate"),
           ("oracle", "OraclePolynomials", "evaluate"))

# Reached only through ``cli._COMMANDS`` or argparse, never through a module
# attribute, so a wrapper there would never run.
SKIP = {"cli.make_parser", "cli.cmd_expand", "cli.cmd_eval", "cli.cmd_oracle",
        "cli.cmd_verify", "cli.cmd_distributional", "cli.cmd_kernel"}

COUNTER_SPAN = "<counter>"


def _nnz(a) -> int:
    return int(np.count_nonzero(a.coeffs))


def _count_multiply(tr, args, kwargs, out):
    a, b = args[0], args[1]
    tr.counts["series.multiply.products"] += _nnz(a) * _nnz(b)
    tr.counts["series.multiply.out_nonzeros"] += _nnz(out)
    tr.counts["series.multiply.out_cells"] += int(out.coeffs.size)


def _count_points(name, pos):
    def counter(tr, args, kwargs, out):
        tr.counts[name + ".points"] += int(np.size(args[pos]))
    return counter


def _count_map_forward_many(tr, args, kwargs, out):
    zs = np.asarray(args[1]).ravel()
    tr.counts["geometry.map_forward_many.points"] += int(zs.size)
    tr.op_points = np.union1d(tr.op_points, zs.astype(np.complex128))


def _count_onp_evaluate(tr, args, kwargs, out):
    tr.counts["oracle.OraclePolynomials.evaluate.point_degrees"] += int(out.size)


def _count_quadrature(tr, args, kwargs, out):
    tr.counts["oracle.build_quadrature.nodes"] += int(out.nodes.size)


def _count_onps(tr, args, kwargs, out):
    tr.counts["oracle.oracle_onps.degree"] += int(out.degree)


COUNTERS = {
    "series.multiply": _count_multiply,
    "series.CircleSeries.evaluate": _count_points("series.CircleSeries.evaluate", 1),
    "series.AnnulusSeries.evaluate": _count_points("series.AnnulusSeries.evaluate", 1),
    "geometry.map_forward_many": _count_map_forward_many,
    "oracle.OraclePolynomials.evaluate": _count_onp_evaluate,
    "oracle.build_quadrature": _count_quadrature,
    "oracle.oracle_onps": _count_onps,
    "expansion.normalized_eval": _count_points("expansion.normalized_eval", 2),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self._stack: list = []
        self._active = defaultdict(int)
        self._undo: list = []
        self.op_points = np.zeros(0, dtype=np.complex128)

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn, counter=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
            if counter is not None:
                c0 = clock()
                counter(self, args, kwargs, out)
                spans.append([COUNTER_SPAN, c0, clock(), span[3], True])
            return out

        return wrapper

    def end_operation(self) -> None:
        """Close one benchmark operation: fold its distinct mapped points."""
        self.counts["geometry.map_forward_many.distinct"] += int(self.op_points.size)
        self.op_points = np.zeros(0, dtype=np.complex128)

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        mods = [importlib.import_module("planorth")]
        mods += [importlib.import_module(f"planorth.{m}") for m in MODULES]
        targets = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                targets[obj] = self.wrap(name, obj, COUNTERS.get(name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, targets[obj])
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"planorth.{modname}"), clsname)
            orig = cls.__dict__[meth]
            name = f"{modname}.{clsname}.{meth}"
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig, COUNTERS.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def summarize(spans) -> dict:
    """Per-name ``calls``, ``self_s`` and ``total_s`` from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children (spans run on one thread, so children never overlap).  Total
    time sums only outermost spans of a name, so recursion is not counted
    twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, outermost) in enumerate(spans):
        if name == COUNTER_SPAN:
            continue
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
        if outermost:
            rec["total_s"] += end - start
    return out
