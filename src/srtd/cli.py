"""Command-line benchmark harness for tensor completion on PNM media.

Subcommands:
  complete  mask each input, run the solver, write recovered media + report
  sweep     repeat a completion while varying lambda, rank, or sr
  psnr      compare two images/videos and print PSNR

A flat JSON file given via --config supplies any of the long-flag values
(key "lambda" for --lambda, underscores for dashes); explicit flags override
the file, the file overrides built-in defaults.

Exit codes: 0 success, 2 bad arguments, 3 file format error, 4 divergence.
"""

from __future__ import annotations

import argparse
import csv
import glob as glob_module
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DivergenceError, FormatError, ParameterError, SrtdError
from .evalkit import mask_from_image, psnr, random_mask
from .pnm import load_image, load_video, save_image
from .solver import SolverConfig, srtd_complete

REPORT_SCHEMA = "srtd-report-v1"
REPORT_COLUMNS = ("input", "mask", "lambda", "rank", "psnr_standard", "psnr_paper",
                  "outer_iters", "inner_iters", "wall_time", "seed")

DEFAULTS = {
    "input": None, "ref": None, "mask_file": None, "sr": None, "seed": 0,
    "lam": 0.05, "rank": None, "rho": 1.1, "mu_init": 1e-4, "mu_max": 1e10,
    "eps": 1e-3, "max_outer": 50, "max_inner": 200, "stop_mode": "relative",
    "psnr_mode": "standard", "out": "srtd_out", "report": None, "jobs": 1,
    "axis": None, "values": None,
}

_FLOAT_KEYS = ("sr", "lam", "rho", "mu_init", "mu_max", "eps")
_INT_KEYS = ("seed", "rank", "max_outer", "max_inner", "jobs")
_GLOB_CHARS = "*?["


@dataclass(frozen=True)
class ExperimentSpec:
    """One resolved experiment: inputs, mask source, solver settings, outputs."""

    inputs: tuple
    mask_file: str | None
    sr: float | None
    seed: int
    solver: SolverConfig
    out: str
    report: str
    psnr_mode: str
    jobs: int


@dataclass(frozen=True)
class ReportRow:
    input: str
    mask: str
    lam: float
    rank: int
    psnr_standard: float
    psnr_paper: float
    outer_iters: int
    inner_iters: int
    wall_time: float
    seed: int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srtd",
        description="Third-order tensor completion (truncated tensor nuclear norm "
                    "+ DCT-domain sparsity) for PNM images and videos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--input", nargs="+",
                        help="PNM image path(s); a directory or glob is read as a P5 video")
        sp.add_argument("--config", help="flat JSON config file; flags override it")
        sp.add_argument("--mask-file", dest="mask_file",
                        help="graymap mask: nonzero pixels are missing, zero observed")
        sp.add_argument("--sr", type=float, help="random-mask sampling rate in (0,1]")
        sp.add_argument("--seed", type=int, help="mask + solver seed (default 0)")
        sp.add_argument("--lambda", dest="lam", type=float,
                        help="DCT-sparsity weight (default 0.05; 0 disables the term)")
        sp.add_argument("--rank", type=int, help="truncation rank r (required)")
        sp.add_argument("--rho", type=float, help="penalty growth factor (default 1.1)")
        sp.add_argument("--mu-init", dest="mu_init", type=float,
                        help="initial penalty (default 1e-4)")
        sp.add_argument("--mu-max", dest="mu_max", type=float,
                        help="penalty cap (default 1e10)")
        sp.add_argument("--eps", type=float, help="stop tolerance (default 1e-3)")
        sp.add_argument("--max-outer", dest="max_outer", type=int,
                        help="outer iteration cap (default 50)")
        sp.add_argument("--max-inner", dest="max_inner", type=int,
                        help="inner iteration cap (default 200)")
        sp.add_argument("--stop-mode", dest="stop_mode", choices=("relative", "absolute"),
                        help="iterate-change test scaling (default relative)")
        sp.add_argument("--psnr-mode", dest="psnr_mode",
                        choices=("standard", "paper", "both"),
                        help="which PSNR to print per row (report always holds both)")
        sp.add_argument("--out", help="output directory (default srtd_out)")
        sp.add_argument("--report", help="report path, .csv or .json (default <out>/report.csv)")
        sp.add_argument("--jobs", type=int, help="max concurrent solves (default 1)")

    sp_complete = sub.add_parser("complete", help="run one completion per input")
    add_common(sp_complete)

    sp_sweep = sub.add_parser("sweep", help="vary lambda, rank, or sr over a value list")
    add_common(sp_sweep)
    sp_sweep.add_argument("--axis", choices=("lambda", "rank", "sr"), help="swept parameter")
    sp_sweep.add_argument("--values", nargs="+", type=float, help="values to sweep")

    sp_psnr = sub.add_parser("psnr", help="PSNR between two images/videos")
    sp_psnr.add_argument("--input", help="recovered image/video")
    sp_psnr.add_argument("--ref", help="reference image/video")
    sp_psnr.add_argument("--config", help="flat JSON config file; flags override it")
    sp_psnr.add_argument("--mask-file", dest="mask_file", help="mask for paper-mode PSNR")
    sp_psnr.add_argument("--sr", type=float, help="regenerate a random mask for paper mode")
    sp_psnr.add_argument("--seed", type=int, help="seed of that random mask (default 0)")
    sp_psnr.add_argument("--psnr-mode", dest="psnr_mode",
                         choices=("standard", "paper", "both"),
                         help="which value(s) to print (default standard)")
    return parser


def _merge_config(args: dict) -> dict:
    merged = dict(DEFAULTS)
    config_path = args.pop("config", None)
    if config_path:
        if not os.path.isfile(config_path):
            raise ParameterError(f"config file not found: {config_path}")
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as err:
            raise FormatError(f"{config_path}: invalid JSON: {err}")
        if not isinstance(data, dict):
            raise FormatError(f"{config_path}: config must be a JSON object")
        for key, value in data.items():
            name = key.replace("-", "_")
            if name == "lambda":
                name = "lam"
            if name not in DEFAULTS:
                raise ParameterError(f"{config_path}: unknown config key {key!r}")
            merged[name] = value
    for key, value in args.items():
        if value is not None:
            merged[key] = value

    for key in _FLOAT_KEYS:
        if merged[key] is not None:
            try:
                merged[key] = float(merged[key])
            except (TypeError, ValueError):
                raise ParameterError(f"{key} must be a number, got {merged[key]!r}")
    for key in _INT_KEYS:
        value = merged[key]
        if value is None:
            continue
        # int() would truncate 2.5 to 2 and read true as 1
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ParameterError(f"{key} must be an integer, got {value!r}")
        try:
            merged[key] = int(value)
        except (TypeError, ValueError):
            raise ParameterError(f"{key} must be an integer, got {value!r}")
    if isinstance(merged["input"], str):
        merged["input"] = [merged["input"]]
    return merged


def _solver_config(merged: dict) -> SolverConfig:
    if merged["rank"] is None:
        raise ParameterError("--rank is required")
    return SolverConfig(
        r=merged["rank"], lam=merged["lam"], rho=merged["rho"],
        mu_init=merged["mu_init"], mu_max=merged["mu_max"],
        eps_outer=merged["eps"], max_outer=merged["max_outer"],
        max_inner=merged["max_inner"], stop_mode=merged["stop_mode"],
        seed=merged["seed"])


def _require_input(path: str) -> None:
    # bad paths are argument errors, not i/o errors
    if os.path.isdir(path) or os.path.isfile(path):
        return
    if any(c in path for c in _GLOB_CHARS) and glob_module.glob(path):
        return
    raise ParameterError(f"input path not found: {path}")


def _spec_from(merged: dict) -> ExperimentSpec:
    inputs = merged["input"]
    if not inputs:
        raise ParameterError("--input is required")
    for path in inputs:
        _require_input(path)
    if merged["mask_file"] is not None and not os.path.isfile(merged["mask_file"]):
        raise ParameterError(f"mask file not found: {merged['mask_file']}")
    if merged["jobs"] < 1:
        raise ParameterError(f"--jobs must be >= 1, got {merged['jobs']}")
    out = merged["out"]
    report = merged["report"] or os.path.join(out, "report.csv")
    return ExperimentSpec(
        inputs=tuple(inputs), mask_file=merged["mask_file"], sr=merged["sr"],
        seed=merged["seed"], solver=_solver_config(merged), out=out,
        report=report, psnr_mode=merged["psnr_mode"], jobs=merged["jobs"])


def _is_video(path: str) -> bool:
    return os.path.isdir(path) or any(c in path for c in _GLOB_CHARS)


def _load_input(path: str):
    if _is_video(path):
        return load_video(path), True
    return load_image(path), False


def _stem(path: str) -> str:
    if any(c in path for c in _GLOB_CHARS):
        path = os.path.dirname(path) or "frames"
    path = path.rstrip("/")
    base = os.path.basename(path)
    return os.path.splitext(base)[0] or "frames"


def _load_mask_file(path: str, shape):
    """The mask stored in the image at ``path``, repeated to ``shape``'s depth."""
    omega = mask_from_image(path, depth=shape[2])
    if omega.shape != tuple(shape):
        raise DimensionError(
            f"mask {path} is {omega.shape[0]}x{omega.shape[1]}, input is {shape[0]}x{shape[1]}")
    return omega


def _build_mask(spec: ExperimentSpec, shape, sr=None):
    """Mask plus its report identifier. ``sr`` overrides spec.sr (sr sweeps)."""
    if spec.mask_file is not None:
        return _load_mask_file(spec.mask_file, shape), f"file:{spec.mask_file}"
    rate = spec.sr if sr is None else sr
    if rate is None:
        raise ParameterError("either --mask-file or --sr is required")
    return random_mask(shape, rate, spec.seed), f"random:sr={rate:g}:seed={spec.seed}"


def _write_recovered(recovered, is_video: bool, out_dir: str, name: str) -> str:
    if is_video:
        frame_dir = os.path.join(out_dir, name + "_recovered")
        os.makedirs(frame_dir, exist_ok=True)
        for i in range(recovered.shape[2]):
            save_image(recovered[:, :, i:i + 1], os.path.join(frame_dir, f"frame_{i:04d}.pgm"))
        return frame_dir
    ext = ".pgm" if recovered.shape[2] == 1 else ".ppm"
    path = os.path.join(out_dir, name + "_recovered" + ext)
    save_image(recovered, path)
    return path


def _solve_one(spec: ExperimentSpec, path: str, cfg: SolverConfig,
               m, is_video: bool, omega, mask_id: str, tag: str) -> ReportRow:
    result = srtd_complete(m, omega, cfg)
    recovered = result.recovered
    # observation constraint must hold bitwise before any quantization
    if not np.array_equal(recovered[omega], m[omega]):
        raise SrtdError(f"recovered output for {path} violates the observation constraint")
    _write_recovered(recovered, is_video, spec.out, _stem(path) + tag)
    return ReportRow(
        input=path, mask=mask_id, lam=cfg.lam, rank=cfg.r,
        psnr_standard=psnr(recovered, m, mode="standard"),
        psnr_paper=psnr(recovered, m, omega, mode="paper"),
        outer_iters=result.outer_iters, inner_iters=result.inner_iters_total,
        wall_time=result.wall_time, seed=cfg.seed)


def _execute(tasks, jobs: int, on_row):
    """Run tasks, emitting rows in task order regardless of completion order."""
    rows = []
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            row = task()
            rows.append(row)
            if on_row:
                on_row(row)
        return rows
    # imported here: it loads logging, which no serial run needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(task) for task in tasks]
        try:
            for future in futures:
                row = future.result()
                rows.append(row)
                if on_row:
                    on_row(row)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    return rows


def run_complete(spec: ExperimentSpec, on_row=None):
    """One completion per input; writes recovered media, returns report rows."""
    os.makedirs(spec.out, exist_ok=True)
    tasks = []
    for path in spec.inputs:
        m, is_video = _load_input(path)
        omega, mask_id = _build_mask(spec, m.shape)
        tasks.append(lambda p=path, m=m, v=is_video, o=omega, mid=mask_id:
                     _solve_one(spec, p, spec.solver, m, v, o, mid, ""))
    return _execute(tasks, spec.jobs, on_row)


def run_sweep(spec: ExperimentSpec, axis: str, values, on_row=None):
    """One completion per (input, value). For lambda/rank sweeps the mask is
    built once per input so rows are mask-matched; sr sweeps rebuild it."""
    if axis not in ("lambda", "rank", "sr"):
        raise ParameterError(f"axis must be lambda, rank, or sr, got {axis!r}")
    if not values:
        raise ParameterError("sweep values must be non-empty")
    values = list(values)
    if axis == "rank":
        for v in values:
            if not float(v).is_integer():  # False for nan and inf too
                raise ParameterError(f"rank values must be integers, got {v}")
    os.makedirs(spec.out, exist_ok=True)

    tasks = []
    for path in spec.inputs:
        m, is_video = _load_input(path)
        shared = _build_mask(spec, m.shape) if axis != "sr" else None
        for v in values:
            if axis == "lambda":
                cfg, (omega, mask_id) = replace(spec.solver, lam=float(v)), shared
                tag = f"_lambda{float(v):g}"
            elif axis == "rank":
                cfg, (omega, mask_id) = replace(spec.solver, r=int(v)), shared
                tag = f"_rank{int(v)}"
            else:
                cfg = spec.solver
                omega, mask_id = _build_mask(spec, m.shape, sr=float(v))
                tag = f"_sr{float(v):g}"
            tasks.append(lambda p=path, c=cfg, m=m, vid=is_video, o=omega, mid=mask_id, t=tag:
                         _solve_one(spec, p, c, m, vid, o, mid, t))
    return _execute(tasks, spec.jobs, on_row)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6f}"
    return str(value)


def _row_values(row: ReportRow):
    return (row.input, row.mask, f"{row.lam:g}", row.rank,
            _fmt(row.psnr_standard), _fmt(row.psnr_paper),
            row.outer_iters, row.inner_iters, f"{row.wall_time:.3f}", row.seed)


def write_report(path: str, rows) -> None:
    """CSV by default, JSON when the path ends in .json; schema is versioned."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if path.lower().endswith(".json"):
        payload = {"schema": REPORT_SCHEMA,
                   "rows": [dict(zip(REPORT_COLUMNS, _row_values(r))) for r in rows]}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(f"# {REPORT_SCHEMA}\n")
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for row in rows:
                writer.writerow(_row_values(row))


def _print_row(row: ReportRow, mode: str) -> None:
    if mode == "both":
        shown = f"psnr_standard={_fmt(row.psnr_standard)} psnr_paper={_fmt(row.psnr_paper)}"
    elif mode == "paper":
        shown = f"psnr_paper={_fmt(row.psnr_paper)}"
    else:
        shown = f"psnr_standard={_fmt(row.psnr_standard)}"
    print(f"{row.input} [{row.mask}] lambda={row.lam:g} rank={row.rank}: {shown} dB "
          f"({row.outer_iters} outer / {row.inner_iters} inner, {row.wall_time:.2f}s)")


def _cmd_solve(merged: dict, axis=None, values=None) -> int:
    spec = _spec_from(merged)
    rows = []

    def sink(row):
        rows.append(row)
        _print_row(row, spec.psnr_mode)

    finished = False
    try:
        if axis is None:
            run_complete(spec, on_row=sink)
        else:
            run_sweep(spec, axis, values, on_row=sink)
        finished = True
    finally:
        # divergence mid-run still leaves the completed rows on disk
        if rows or finished:
            write_report(spec.report, rows)
    return 0


def _cmd_psnr(merged: dict) -> int:
    if not merged["input"] or len(merged["input"]) != 1:
        raise ParameterError("psnr needs exactly one --input")
    if not merged["ref"]:
        raise ParameterError("psnr needs --ref")
    _require_input(merged["input"][0])
    _require_input(merged["ref"])
    if merged["mask_file"] is not None and not os.path.isfile(merged["mask_file"]):
        raise ParameterError(f"mask file not found: {merged['mask_file']}")
    x, _ = _load_input(merged["input"][0])
    ref, _ = _load_input(merged["ref"])
    if x.shape != ref.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {ref.shape}")
    omega = None
    if merged["mask_file"] is not None:
        omega = _load_mask_file(merged["mask_file"], ref.shape)
    elif merged["sr"] is not None:
        omega = random_mask(ref.shape, merged["sr"], merged["seed"])
    mode = merged["psnr_mode"]
    if mode in ("standard", "both"):
        print(f"standard: {_fmt(psnr(x, ref, mode='standard'))} dB")
    if mode in ("paper", "both"):
        print(f"paper: {_fmt(psnr(x, ref, omega, mode='paper'))} dB")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    try:
        merged = _merge_config(args)
        if command == "psnr":
            return _cmd_psnr(merged)
        if command == "complete":
            return _cmd_solve(merged)
        if merged["axis"] is None:
            raise ParameterError("--axis is required for sweep")
        return _cmd_solve(merged, axis=merged["axis"], values=merged["values"])
    except (ParameterError, DimensionError) as err:
        print(f"srtd: error: {err}", file=sys.stderr)
        return 2
    except FormatError as err:
        print(f"srtd: format error: {err}", file=sys.stderr)
        return 3
    except DivergenceError as err:
        print(f"srtd: divergence: {err}", file=sys.stderr)
        return 4
    except np.linalg.LinAlgError as err:
        print(f"srtd: numerical error: {err}", file=sys.stderr)
        return 5
    except OSError as err:
        print(f"srtd: i/o error: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
