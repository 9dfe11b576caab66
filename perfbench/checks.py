"""Output checks. Each returns {check name: None if it passed, else why it
failed}. They test properties of the method (observed entries kept,
feasibility) and values the benchmark computes itself (PSNR, decoded
frames), not figures srtd reports about itself."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import SAMPLING_RATE, P5Error, Workload, psnr, read_frames

REPORT_SCHEMA = "# srtd-report-v1"
REPORT_COLUMNS = ["input", "mask", "lambda", "rank", "psnr_standard", "psnr_paper",
                  "outer_iters", "inner_iters", "wall_time", "seed"]
# ROADMAP acceptance check 12: an absolute-stop solve ends feasible.
FEASIBILITY = 1e-2


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def check_api(w: Workload, truth, omega, recovered, residuals) -> tuple[dict, float]:
    """Checks of one srtd_complete result; also returns its PSNR."""
    out = {}
    recovered = np.asarray(recovered)
    if recovered.shape != truth.shape or not np.isfinite(recovered).all():
        out["finite_output"] = f"shape {recovered.shape} or non-finite entries"
        return out, -math.inf
    out["finite_output"] = None
    out["observed_bitwise"] = (None if _same_bits(recovered[omega], truth[omega])
                               else "an observed entry differs from the input")
    value = psnr(recovered, truth)
    out["psnr_floor"] = None if value >= w.psnr_floor else f"{value:.3f} dB < {w.psnr_floor} dB"
    if w.stop_mode == "absolute":
        limit = FEASIBILITY * float(np.linalg.norm(truth))
        worst = max(residuals[0], residuals[1])
        out["feasible"] = None if worst <= limit else f"residual {worst:.3e} > {limit:.3e}"
    return out, value


def read_report(path: Path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != REPORT_SCHEMA:
        raise ValueError(f"first line is not {REPORT_SCHEMA!r}")
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != REPORT_COLUMNS:
        raise ValueError("column header differs from srtd-report-v1")
    if any(len(r) != len(REPORT_COLUMNS) for r in rows[1:]):
        raise ValueError("a row has the wrong number of fields")
    return [dict(zip(REPORT_COLUMNS, r)) for r in rows[1:]]


def frames_dir(out: Path, lam: float) -> Path:
    return Path(out) / f"frames_lambda{lam:g}_recovered"


def check_cli(w: Workload, truth, omega, seed: int, out: Path, report: Path) -> tuple[dict, list]:
    """Checks of one `srtd sweep` process that exited with code 0; also
    returns the PSNR of each row, computed from the frames it wrote."""
    checks = {}
    try:
        rows = read_report(report)
        checks["report_schema"] = None
    except (OSError, ValueError) as err:
        checks["report_schema"] = str(err)
        rows = []
    want = [f"{lam:g}" for lam in w.lambdas]
    got = [r["lambda"] for r in rows]
    bad = [r for r in rows if r["rank"] != str(w.rank)
           or r["mask"] != f"random:sr={SAMPLING_RATE:g}:seed={seed}" or r["seed"] != str(seed)]
    checks["report_rows"] = (None if got == want and not bad
                             else f"lambda column {got}, expected {want}; {len(bad)} rows off")

    missing = ~omega
    # Rounding moves each missing pixel by at most 0.5, so the RMSE moves by
    # at most 0.5 * sqrt(missing share); 1e-6 covers the report's 6 decimals.
    slack = 0.5 * math.sqrt(missing.mean())
    values, decode, observed, matches = [], [], [], []
    for lam, row in zip(w.lambdas, rows):
        try:
            frames = read_frames(frames_dir(out, lam))
        except (OSError, P5Error) as err:
            decode.append(str(err))
            continue
        if frames.shape != truth.shape:
            decode.append(f"lambda {lam:g}: frames stack to {frames.shape}")
            continue
        if not np.array_equal(frames[omega], truth[omega]):
            observed.append(f"lambda {lam:g}")
        value = psnr(frames, truth)
        values.append(value)
        rmse = 255.0 / 10 ** (value / 20)
        rmse_report = 255.0 / 10 ** (float(row["psnr_standard"]) / 20)
        if abs(rmse - rmse_report) > slack + 1e-6 * rmse_report:
            matches.append(f"lambda {lam:g}: frames {value:.4f} dB, report {row['psnr_standard']}")
    checks["frames_decoded"] = "; ".join(decode) or (
        None if len(values) == len(w.lambdas) else "fewer frame sets than lambda values")
    checks["frames_observed"] = ("observed pixels differ at " + ", ".join(observed)) if observed else None
    checks["psnr_matches_report"] = "; ".join(matches) or None
    low = [v for v in values if v < w.psnr_floor]
    checks["psnr_floor"] = f"{min(low):.3f} dB < {w.psnr_floor} dB" if low else None
    return checks, values
