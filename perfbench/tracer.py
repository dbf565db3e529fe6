"""Out-of-program tracing of dqcalib's layers.

The tracer rebinds the public functions of each layer, wherever a dqcalib
module holds a reference to them, with wrappers that record one span per
call: name, parent span, start, end, the numpy.linalg kernels called while
the span was innermost, and a small fact taken from the return value
(pairs loaded, iterations, certificate verdict, provenance).  Spans stay in
memory until the run ends; per-layer metrics are computed from them, with
self time being a span's duration minus its children's.

A layer function that no longer exists is skipped, so its metrics read as
absent instead of failing the run.  A layer that exists but does not run on
a workload reports 0.

What each per-layer metric should move (E2E metrics as in ``run.py``):

* ``io.load_pairs_jsonl.us_per_pair``, ``cost.add.us_per_call`` and
  ``.calls``: ``latency_ms_p50`` and ``peak_rss_mb`` on ``batch_3d``; no
  change on ``online_3d``, where ``cost.add`` is one call per step.
* ``global_solver.*`` (dual search, its ``eigvalsh`` calls, primal
  recovery, the Newton polish: a ``solve_local`` span under
  ``solve_global``): ``latency_ms_p50`` on ``batch_planar``,
  ``pairs_per_s`` on ``online_3d`` (its no-fail window); little on
  ``batch_3d``.
* ``local_solver.solve_local.*`` (fast-solver call sites only) and
  ``verify.certify.*``: ``latency_ms_p50`` on ``online_3d``;
  ``certified_ratio`` also the summary's ``uncertified_frac``.
* ``online.fallback_ratio`` and ``online.update.self_ms_per_call``:
  ``pairs_per_s`` on ``online_3d``.
* ``cli.calibrate.self_ms`` and ``planar.fit_ground_plane.ms_per_call``:
  ``latency_ms_p50`` on the batch workloads.
* ``linalg.<kernel>.calls`` count numpy.linalg calls over the traced unit;
  ``trace.overhead_ratio`` is its traced over its untraced wall time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute path) of the function it wraps
LAYERS = {
    "cli.calibrate": ("dqcalib.cli", "cmd_calibrate"),
    "io.load_pairs_jsonl": ("dqcalib.io", "load_pairs_jsonl"),
    "planar.fit_ground_plane": ("dqcalib.planar", "fit_ground_plane"),
    "cost.add": ("dqcalib.cost", "CostAccumulator.add"),
    "online.update": ("dqcalib.online", "OnlineCalibrator.update"),
    "global_solver.solve_global": ("dqcalib.global_solver", "solve_global"),
    "global_solver.solve_dual": ("dqcalib.global_solver", "solve_dual"),
    "global_solver.recover_primal": ("dqcalib.global_solver", "recover_primal"),
    "local_solver.solve_local": ("dqcalib.local_solver", "solve_local"),
    "verify.certify": ("dqcalib.verify", "certify"),
}

KERNELS = ("eigvalsh", "eigh", "lstsq", "solve")

# a solve_local span under solve_global is the Newton polish, not a fast solve
POLISH_PARENT = "global_solver.solve_global"


def _pairs(result):
    return len(result)


def _local_info(result):
    return (getattr(result, "iterations", None), getattr(result, "converged", None))


def _certified(result):
    return getattr(result, "is_global", None)


def _provenance(result):
    return getattr(result, "provenance", None)


INFO = {
    "io.load_pairs_jsonl": _pairs,
    "local_solver.solve_local": _local_info,
    "verify.certify": _certified,
    "online.update": _provenance,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "kernels", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.kernels = None
        self.info = None


def _lookup(module_name, path):
    """Return (owner, attribute, function) or None if it no longer exists."""
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    owner, _, attr = path.rpartition(".")
    for part in owner.split(".") if owner else ():
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    func = vars(obj).get(attr)
    if func is None:
        return None
    return obj, attr, func


class Tracer:
    """Records spans while installed; single-threaded use only."""

    def __init__(self):
        self.root = Span("root", None, time.perf_counter())
        self.spans: list[Span] = []
        self._stack = [self.root]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation ---------------------------------------------------------

    def _rebind(self, func, wrapper, owners):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is func:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "dqcalib" or name.startswith("dqcalib.")]
        for name, (module_name, path) in LAYERS.items():
            found = _lookup(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, func = found
            wrapper = self._span_wrapper(name, func, INFO.get(name))
            if isinstance(owner, type):
                self._undo.append((owner, attr, func))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(func, wrapper, modules)
        for kernel in KERNELS:
            func = getattr(np.linalg, kernel)
            self._rebind(func, self._kernel_wrapper(kernel, func),
                         [np.linalg] + modules)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span_wrapper(self, name, func, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1], time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
                if info is not None:
                    span.info = info(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return wrapper

    def _kernel_wrapper(self, kernel, func):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = stack[-1]
            if span.kernels is None:
                span.kernels = dict.fromkeys(KERNELS, 0)
            span.kernels[kernel] += 1
            return func(*args, **kwargs)
        return wrapper

    @contextmanager
    def op(self):
        """Span of one benchmark operation; the root of its layer spans."""
        span = Span("op", self._stack[-1], time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- output ------------------------------------------------------------------

    def write_csv(self, path):
        ids = {id(self.root): 0}
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_us", "end_us",
                          *KERNELS, "info"])
            t0 = self.root.start
            for i, s in enumerate(self.spans, start=1):
                ids[id(s)] = i
                k = s.kernels or dict.fromkeys(KERNELS, 0)
                out.writerow([i, ids[id(s.parent)], s.name,
                              f"{(s.start - t0) * 1e6:.1f}",
                              f"{(s.end - t0) * 1e6:.1f}",
                              *(k[n] for n in KERNELS),
                              "" if s.info is None else s.info])


def _inclusive(spans):
    """Self seconds and kernel counts including descendants', per span id;
    and the total count of each kernel."""
    child_time = {id(s): 0.0 for s in spans}
    kernels = {id(s): dict(s.kernels or dict.fromkeys(KERNELS, 0)) for s in spans}
    for s in reversed(spans):  # children start after, so come later
        p = id(s.parent)
        if p in child_time:
            child_time[p] += s.end - s.start
            for k, v in kernels[id(s)].items():
                kernels[p][k] += v
    self_time = {id(s): (s.end - s.start) - child_time[id(s)] for s in spans}
    linalg = dict.fromkeys(KERNELS, 0)
    for s in spans:
        for k, v in (s.kernels or {}).items():
            linalg[k] += v
    return self_time, kernels, linalg


def layer_metrics(spans, missing=()) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; see the module docs."""
    self_time, kernels, linalg = _inclusive(spans)
    groups: dict[str, list[Span]] = {name: [] for name in LAYERS}
    groups["global_solver.polish"] = []
    for s in spans:
        if s.name == "local_solver.solve_local" and s.parent.name == POLISH_PARENT:
            groups["global_solver.polish"].append(s)
        elif s.name in groups:
            groups[s.name].append(s)
    if {"local_solver.solve_local", POLISH_PARENT} & set(missing):
        missing = [*missing, "global_solver.polish"]

    def per_call_ms(name):
        g = groups[name]
        return sum(s.end - s.start for s in g) * 1e3 / len(g) if g else 0.0

    def self_ms_per_call(name):
        g = groups[name]
        return sum(self_time[id(s)] for s in g) * 1e3 / len(g) if g else 0.0

    def kernel_calls(name, kernel):
        return sum(kernels[id(s)][kernel] for s in groups[name])

    def ratio(values):
        return sum(1 for v in values if v) / len(values) if values else 0.0

    m = {}
    pairs = sum(s.info or 0 for s in groups["io.load_pairs_jsonl"])
    load_s = sum(s.end - s.start for s in groups["io.load_pairs_jsonl"])
    m["io.load_pairs_jsonl.us_per_pair"] = (load_s * 1e6 / pairs if pairs else 0.0, "us")
    m["planar.fit_ground_plane.ms_per_call"] = (per_call_ms("planar.fit_ground_plane"), "ms")
    m["cost.add.us_per_call"] = (per_call_ms("cost.add") * 1e3, "us")
    m["cost.add.calls"] = (len(groups["cost.add"]), "count")
    m["global_solver.solve_global.calls"] = (len(groups["global_solver.solve_global"]), "count")
    m["global_solver.solve_global.ms_per_call"] = (per_call_ms("global_solver.solve_global"), "ms")
    m["global_solver.solve_dual.ms_per_call"] = (per_call_ms("global_solver.solve_dual"), "ms")
    m["global_solver.solve_dual.eigvalsh_calls"] = (kernel_calls("global_solver.solve_dual", "eigvalsh"), "count")
    m["global_solver.recover_primal.ms_per_call"] = (per_call_ms("global_solver.recover_primal"), "ms")
    m["global_solver.polish.ms_per_call"] = (per_call_ms("global_solver.polish"), "ms")
    m["global_solver.polish.lstsq_calls"] = (kernel_calls("global_solver.polish", "lstsq"), "count")

    fast = groups["local_solver.solve_local"]
    m["local_solver.solve_local.ms_per_call"] = (per_call_ms("local_solver.solve_local"), "ms")
    iters = [s.info[0] for s in fast if s.info and s.info[0] is not None]
    if len(iters) == len(fast):
        m["local_solver.solve_local.iterations_per_call"] = (
            sum(iters) / len(iters) if iters else 0.0, "count")
    converged = [s.info[1] for s in fast if s.info and s.info[1] is not None]
    if len(converged) == len(fast):
        m["local_solver.solve_local.converged_ratio"] = (ratio(converged), "ratio")
    m["local_solver.solve_local.lstsq_calls"] = (kernel_calls("local_solver.solve_local", "lstsq"), "count")

    cert = groups["verify.certify"]
    m["verify.certify.ms_per_call"] = (per_call_ms("verify.certify"), "ms")
    m["verify.certify.eigvalsh_calls"] = (kernel_calls("verify.certify", "eigvalsh"), "count")
    if all(s.info is not None for s in cert):
        m["verify.certify.certified_ratio"] = (ratio([s.info for s in cert]), "ratio")

    upd = groups["online.update"]
    if all(s.info is not None for s in upd):
        m["online.fallback_ratio"] = (ratio([s.info == "global" for s in upd]), "ratio")
    m["online.update.self_ms_per_call"] = (self_ms_per_call("online.update"), "ms")
    m["cli.calibrate.self_ms"] = (self_ms_per_call("cli.calibrate"), "ms")

    for kernel in KERNELS:
        m[f"linalg.{kernel}.calls"] = (linalg[kernel], "count")

    absent = {name for name in m
              if any(name.startswith(layer + ".") for layer in missing)}
    if "online.update" in missing:
        absent.add("online.fallback_ratio")
    return {k: v for k, v in m.items() if k not in absent}
