"""Spans around calls into srtd, recorded from the benchmark's side.

A span is a dict with id, name, start, end, parent (span id or -1) and
attrs. The tracer replaces a function where its caller looks it up:
``solver`` and ``cli`` import the functions they use by name, so wrapping
``srtd.t_algebra.svt`` would miss the solver's calls, while wrapping
``srtd.solver.svt`` catches them. Span names are the defining module and
function, e.g. ``t_algebra.svt``. Each thread keeps its own span stack.

Work the tracer adds (counting kept singular values, opening a tracemalloc
window) sits inside a ``bench.untimed`` span, which counts as a child of the
span around it, so it is taken out of every self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

SITES = {
    "srtd.solver": ("svt", "tsvd", "tproduct", "tnn", "trace_pair", "dct3", "idct3",
                    "fro_norm", "l1_norm", "ttranspose", "truncate_factors", "update_x",
                    "update_e", "update_w", "update_duals", "admm_solve", "srtd_complete"),
    "srtd.cli": ("srtd_complete", "random_mask", "psnr", "load_video", "save_image",
                 "run_sweep", "write_report"),
}
# Enough to read the iteration counts and residuals of every solve.
SOLVES_ONLY = {"srtd.cli": ("srtd_complete",)}
UNTIMED = "bench.untimed"


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._mem_lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name, "start": time.perf_counter(), "end": None,
                "parent": stack[-1]["id"] if stack else -1, "attrs": {}}
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def untimed(self):
        span = self.open(UNTIMED)
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, fn, name: str):
        before, after = HOOKS.get(fn.__name__, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, sites=SITES):
        """Wrap every function named in ``sites`` for the duration. A name
        the module no longer has is skipped, and its layer reads 0."""
        saved = []
        try:
            for module_name, names in sites.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    name = fn.__module__.removeprefix("srtd.") + "." + fn.__name__
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _count_kept(tracer, span, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    with tracer.untimed():
        sv = np.linalg.svd(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0), compute_uv=False)
        span["attrs"].update(kept=int((sv > tau).sum()), computed=int(sv.size))


# The outer step is truncate_factors(tsvd(x), r): a tracemalloc window opens
# before tsvd and closes after truncate_factors. One window at a time; with
# two solves in flight the window also sees the other thread's allocations.
def _open_window(tracer):
    with tracer.untimed():
        if not tracemalloc.is_tracing() and tracer._mem_lock.acquire(blocking=False):
            tracer._local.window = True
            tracemalloc.start()


def _close_window(tracer, span, args, kwargs, result):
    if getattr(tracer._local, "window", False):
        with tracer.untimed():
            span["attrs"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer._local.window = False
            tracer._mem_lock.release()


def _note_inner(tracer, span, args, kwargs, result):
    span["attrs"]["inner"] = result.inner_iter


def _note_solve(tracer, span, args, kwargs, result):
    r0, r1, _ = result.final_residuals
    span["attrs"].update(inner=result.inner_iters_total, outer=result.outer_iters,
                         r0=float(r0), r1=float(r1))


HOOKS = {
    "svt": (None, _count_kept),
    "tsvd": (_open_window, None),
    "truncate_factors": (None, _close_window),
    "admm_solve": (None, _note_inner),
    "srtd_complete": (None, _note_solve),
}


def solves(spans) -> list:
    """Per solve: inner sweeps, outer steps, raw final residuals and the
    inner sweeps of its last outer step."""
    last_inner = {}
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] == "solver.admm_solve":
            last_inner[s["parent"]] = s["attrs"]["inner"]
    return [dict(s["attrs"], last_inner=last_inner.get(s["id"], 0))
            for s in spans if s["name"] == "solver.srtd_complete" and "inner" in s["attrs"]]


class LayerTotals:
    """Sums over units of self time, inclusive time and calls per span name."""

    def __init__(self):
        self.self_s = Counter()
        self.incl_s = Counter()
        self.calls = Counter()
        self.kept = self.computed = self.peak_bytes = 0
        self.solves = []
        self.processes = 0
        self.import_s = self.pool_efficiency = 0.0

    def add(self, spans, import_s=None, jobs=1) -> None:
        child_s = Counter()
        for s in spans:
            if s["parent"] >= 0:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            dur = s["end"] - s["start"]
            self.incl_s[s["name"]] += dur
            self.self_s[s["name"]] += dur - child_s[s["id"]]
            self.calls[s["name"]] += 1
            a = s["attrs"]
            self.kept += a.get("kept", 0)
            self.computed += a.get("computed", 0)
            self.peak_bytes = max(self.peak_bytes, a.get("peak_bytes", 0))
        unit_solves = solves(spans)
        self.solves += unit_solves
        if import_s is not None:
            self.processes += 1
            self.import_s += import_s
            sweep = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.run_sweep")
            solving = sum(s["end"] - s["start"] for s in spans if s["name"] == "solver.srtd_complete")
            self.pool_efficiency += solving / (sweep * jobs) if sweep else 0.0

    def metrics(self) -> dict:
        n = len(self.solves) or 1
        sweeps = sum(s["inner"] for s in self.solves) or 1
        outer = sum(s["outer"] for s in self.solves) or 1
        procs = self.processes or 1

        def per_sweep_ms(name):
            return 1e3 * self.self_s[name] / sweeps

        def per_process_ms(name):
            return 1e3 * self.incl_s[name] / procs

        return {
            "t_algebra.svt_ms": per_sweep_ms("t_algebra.svt"),
            "t_algebra.svt_calls": self.calls["t_algebra.svt"] / n,
            "t_algebra.svt_kept_frac": self.kept / self.computed if self.computed else 0.0,
            "t_algebra.tsvd_ms": 1e3 * (self.incl_s["t_algebra.tsvd"]
                                        + self.incl_s["solver.truncate_factors"]) / outer,
            "t_algebra.tsvd_peak_mb": self.peak_bytes / 1e6,
            "t_algebra.tproduct_calls": self.calls["t_algebra.tproduct"] / n,
            "t_algebra.tproduct_ms": per_sweep_ms("t_algebra.tproduct"),
            "transforms.dct3_calls": self.calls["transforms.dct3"] / n,
            "transforms.dct3_per_sweep": self.calls["transforms.dct3"] / sweeps,
            "transforms.dct3_ms": per_sweep_ms("transforms.dct3"),
            "transforms.idct3_ms": per_sweep_ms("transforms.idct3"),
            "solver.update_x_ms": per_sweep_ms("solver.update_x"),
            "solver.update_e_ms": per_sweep_ms("solver.update_e"),
            "solver.update_w_ms": per_sweep_ms("solver.update_w"),
            "solver.update_duals_ms": per_sweep_ms("solver.update_duals"),
            "solver.outer_self_ms": 1e3 * self.self_s["solver.srtd_complete"] / n,
            "solver.inner_iters": sweeps / n,
            "solver.outer_iters": outer / n,
            "solver.last_step_inner_iters": sum(s["last_inner"] for s in self.solves) / n,
            "tensor_core.fro_norm_ms": per_sweep_ms("tensor_core.fro_norm"),
            "tensor_core.ttranspose_calls": self.calls["tensor_core.ttranspose"] / n,
            "cli.import_s": self.import_s / procs,
            "cli.run_sweep_s": self.incl_s["cli.run_sweep"] / procs,
            "cli.pool_efficiency": self.pool_efficiency / procs,
            "pnm.load_video_ms": per_process_ms("pnm.load_video"),
            "pnm.save_image_ms": per_process_ms("pnm.save_image"),
            "evalkit.random_mask_ms": per_process_ms("evalkit.random_mask"),
            "evalkit.psnr_ms": per_process_ms("evalkit.psnr"),
            "cli.write_report_ms": per_process_ms("cli.write_report"),
        }
