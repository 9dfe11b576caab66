"""Benchmark of srtd on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of image_rgb, video_tight, cli_sweep, or ``all``
for every workload in turn from this one process. With --trace 0 the run
times whole solves for about S seconds and prints the end-to-end metrics;
with --trace 1 it wraps srtd's functions in spans and prints the per-layer
metrics instead. Every output is checked. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. README.md beside
this file describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import env

env.pin_threads()        # before numpy loads: OpenBLAS reads its thread count once
env.use_source_tree()

import numpy as np  # noqa: E402
import srtd.solver  # noqa: E402
from srtd.evalkit import random_mask  # noqa: E402

from checks import check_api, check_cli  # noqa: E402
from tracing import LayerTotals, Tracer, solves  # noqa: E402
from workloads import SAMPLING_RATE, WORKLOADS, make_inputs, write_frames  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5     # fresh interpreters per run; setup_s is their median
MIN_UNITS = 3        # timed units per run, however long each takes
CHILD_TIMEOUT = 150  # seconds for one process started by the benchmark

END_TO_END = {"solve_s": "s", "sweep_ms": "ms", "setup_s": "s", "peak_mb": "MB",
              "psnr_db": "dB", "primal_res": "ratio", "dct_res": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_calls", "count"),
                         ("_iters", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


@dataclass
class Outcome:
    """One unit of work: a srtd_complete call, or one `srtd sweep` process."""

    wall: float
    solves: list          # per solve: inner, outer, r0, r1 (raw residuals)
    psnr: list            # per solve, from the benchmark's own formula
    checks: dict
    spans: list = field(default_factory=list)
    peak_bytes: int = 0
    import_s: float | None = None


class ApiUnit:
    def __init__(self, w, inputs, seed):
        self.w, self.inputs = w, inputs
        self.cfg = srtd.SolverConfig(r=w.rank, lam=w.lam, stop_mode=w.stop_mode, seed=seed)
        self.obs_norm = float(np.linalg.norm(inputs.observed))

    def __call__(self, mode: str) -> Outcome:
        tracer = Tracer()
        if mode == "peak":
            tracemalloc.start()
        try:
            with tracer.installed() if mode == "trace" else contextlib.nullcontext():
                start = time.perf_counter()
                report = srtd.solver.srtd_complete(self.inputs.observed, self.inputs.omega,
                                                   self.cfg)
                wall = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1] if mode == "peak" else 0
        finally:
            if mode == "peak":
                tracemalloc.stop()
        r0, r1, _ = report.final_residuals
        checks, value = check_api(self.w, self.inputs.truth, self.inputs.omega,
                                  report.recovered, (r0, r1))
        solve = {"inner": report.inner_iters_total, "outer": report.outer_iters, "r0": r0, "r1": r1}
        return Outcome(wall, [solve], [value], checks, tracer.spans, peak)


class CliUnit:
    def __init__(self, w, inputs, seed, work: Path):
        self.w, self.inputs, self.seed = w, inputs, seed
        self.frames, self.out, self.record = work / "frames", work / "out", work / "record.json"
        write_frames(inputs.truth, self.frames)
        # The mask the CLI draws for "random:sr=0.5:seed=<seed>".
        self.omega = random_mask(w.shape, SAMPLING_RATE, seed)
        self.obs_norm = float(np.linalg.norm(inputs.truth[self.omega]))

    def __call__(self, mode: str) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        self.record.unlink(missing_ok=True)
        flags = {"trace": ["--trace"], "peak": ["--peak"]}.get(mode, [])
        cmd = [sys.executable, str(HERE / "cli_child.py"), "--record", str(self.record), *flags,
               "--", "sweep", "--input", str(self.frames), "--axis", "lambda",
               "--values", *[f"{v:g}" for v in self.w.lambdas], "--sr", f"{SAMPLING_RATE:g}",
               "--rank", str(self.w.rank), "--seed", str(self.seed), "--jobs", str(env.CLI_JOBS),
               "--out", str(self.out), "--report", str(self.out / "report.csv")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"srtd sweep exited with {proc.returncode}: {proc.stderr[-2000:]}")
        record = json.loads(self.record.read_text())
        checks, values = check_cli(self.w, self.inputs.truth, self.omega, self.seed,
                                   self.out, self.out / "report.csv")
        return Outcome(wall, solves(record["spans"]), values, checks,
                       record["spans"] if mode == "trace" else [], record["peak_bytes"],
                       record["import_s"])


def probe_setup(w, seed: int, work: Path) -> list:
    times = []
    for i in range(SETUP_PROBES):
        frame_dir = work / f"probe{i}"
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed),
                               str(frame_dir)], capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT)
        times.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(frame_dir, ignore_errors=True)
    return times


def measure(unit, mode: str, seconds: float):
    """Whole units until the next one would end past ``seconds``."""
    outcomes, failed = [], 0
    start = time.perf_counter()
    while True:
        try:
            outcomes.append(unit(mode))
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
        done = len(outcomes) + failed
        elapsed = time.perf_counter() - start
        typical = statistics.median(o.wall for o in outcomes) if outcomes else elapsed / done
        if done >= MIN_UNITS and elapsed + typical > seconds:
            return outcomes, failed


def run_workload(w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup = [] if trace else probe_setup(w, seed, work)
    inputs = make_inputs(w, seed)
    unit = CliUnit(w, inputs, seed, work) if w.is_cli else ApiUnit(w, inputs, seed)
    failed, peak = 0, None
    if not trace:
        # its own pass, first, so that it also warms caches for the timed units
        try:
            peak = unit("peak")
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
    outcomes, timed_failed = measure(unit, "trace" if trace else "plain", seconds)
    failed += timed_failed
    if not outcomes:
        raise SystemExit(f"perfbench: every {w.name} unit failed; nothing to measure")
    attempted = len(outcomes) + failed + (peak is not None)

    checked = outcomes + ([peak] if peak else [])
    checks = {}
    for o in checked:
        for name, problem in o.checks.items():
            checks.setdefault(name, [])
            if problem:
                checks[name].append(problem)

    if trace:
        totals = LayerTotals()
        for o in outcomes:
            totals.add(o.spans, import_s=o.import_s, jobs=env.CLI_JOBS)
        metrics = totals.metrics()
        metrics["bench.traced_solve_s"] = statistics.median(o.wall for o in outcomes)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "solve_s": statistics.median(o.wall for o in outcomes),
            "sweep_ms": statistics.median(1e3 * o.wall / sum(s["inner"] for s in o.solves)
                                          for o in outcomes),
            "setup_s": statistics.median(setup),
            "peak_mb": peak.peak_bytes / 1e6 if peak else None,
            "psnr_db": statistics.median(statistics.fmean(o.psnr) for o in outcomes),
            "primal_res": statistics.median(statistics.fmean(s["r0"] for s in o.solves)
                                            for o in outcomes) / unit.obs_norm,
            "dct_res": statistics.median(statistics.fmean(s["r1"] for s in o.solves)
                                         for o in outcomes) / unit.obs_norm,
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
        units = END_TO_END
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": env.machine_record(),
        "correct": not any(checks.values()),
        "attempted": attempted, "failed": failed,
        "checks": checks,
        "unit_walls_s": [o.wall for o in outcomes],
        "spans": [o.spans for o in outcomes] if trace else [],
        "setup_probes_s": setup,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def show(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, problems in record["checks"].items():
        print(f"check {name}: " + ("FAIL " + "; ".join(problems) if problems else "pass"))
    for name, m in record["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {record['attempted']} failed {record['failed']}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    records = []
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    for name in names:
        work = HERE / "_work" / f"{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        base = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = record.pop("spans")
        if spans:
            (runs / f"{base}.spans.json").write_text(json.dumps(spans))
        (runs / f"{base}.json").write_text(json.dumps(record, indent=1) + "\n")
        show(record)
        records.append(record)
    with contextlib.suppress(OSError):
        (HERE / "_work").rmdir()
    if len(records) == 1:
        r = records[0]
        print(result_line(r["correct"], r["attempted"], r["failed"], r["metrics"]))
    else:
        print(result_line(all(r["correct"] for r in records),
                          sum(r["attempted"] for r in records), sum(r["failed"] for r in records),
                          {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
