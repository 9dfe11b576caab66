"""The benchmark's own tests: a smoke run of every workload at toy sizes,
and one case per output check showing that it catches a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import math
import shutil

import numpy as np
import pytest

import run
from checks import check_api, check_cli, frames_dir
from tracing import LayerTotals, Tracer
from workloads import TINY, make_inputs, write_frames

import srtd
import srtd.cli

SEED = 3


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_passes_every_check(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    record = run.run_workload(TINY[name], SEED, 0.0, trace, tmp_path)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0
    assert record["attempted"] == run.MIN_UNITS + (not trace)
    names = set(record["metrics"])
    if trace:
        assert names == set(LayerTotals().metrics()) | {"bench.traced_solve_s"}
    else:
        assert names == set(run.END_TO_END)
    for name_, m in record["metrics"].items():
        assert math.isfinite(m["value"]), name_
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_layer_metrics_see_the_cli_layers(tmp_path):
    record = run.run_workload(TINY["cli_sweep"], SEED, 0.0, True, tmp_path)
    m = {k: v["value"] for k, v in record["metrics"].items()}
    for name in ("cli.import_s", "cli.run_sweep_s", "pnm.load_video_ms", "pnm.save_image_ms",
                 "cli.write_report_ms", "t_algebra.svt_ms", "solver.inner_iters"):
        assert m[name] > 0, name
    assert 0 < m["cli.pool_efficiency"] <= 1.0


def test_tracer_skips_a_function_the_program_no_longer_has():
    import srtd.solver
    before = srtd.solver.svt
    with Tracer().installed({"srtd.solver": ("svt", "no_such_function")}):
        assert srtd.solver.svt is not before
    assert srtd.solver.svt is before


# --- API checks -----------------------------------------------------------

def _api_case():
    w = TINY["video_tight"]
    inputs = make_inputs(w, SEED)
    return w, inputs, inputs.truth.copy()


def test_api_checks_pass_on_exact_output():
    w, inputs, rec = _api_case()
    checks, value = check_api(w, inputs.truth, inputs.omega, rec, (0.0, 0.0))
    assert not any(checks.values()) and value == math.inf


def test_api_check_catches_an_altered_observed_entry():
    w, inputs, rec = _api_case()
    i = np.flatnonzero(inputs.omega)[0]
    rec.flat[i] = np.nextafter(rec.flat[i], np.inf)
    checks, _ = check_api(w, inputs.truth, inputs.omega, rec, (0.0, 0.0))
    assert checks["observed_bitwise"] and not checks["psnr_floor"]


def test_api_check_catches_a_poor_fill():
    w, inputs, _ = _api_case()
    checks, _ = check_api(w, inputs.truth, inputs.omega, inputs.observed, (0.0, 0.0))
    assert checks["psnr_floor"] and not checks["observed_bitwise"]


def test_api_check_catches_an_infeasible_end():
    w, inputs, rec = _api_case()
    limit = 1e-2 * np.linalg.norm(inputs.truth)
    checks, _ = check_api(w, inputs.truth, inputs.omega, rec, (0.0, 2 * limit))
    assert checks["feasible"]


def test_api_check_catches_non_finite_output():
    w, inputs, rec = _api_case()
    rec[~inputs.omega] = np.nan
    checks, _ = check_api(w, inputs.truth, inputs.omega, rec, (0.0, 0.0))
    assert checks["finite_output"]


# --- CLI checks -----------------------------------------------------------

@pytest.fixture(scope="module")
def cli_output(tmp_path_factory):
    """One real `srtd sweep` on toy frames; each test corrupts a copy."""
    w = TINY["cli_sweep"]
    base = tmp_path_factory.mktemp("cli")
    truth = make_inputs(w, SEED).truth
    write_frames(truth, base / "frames")
    code = srtd.cli.main(["sweep", "--input", str(base / "frames"), "--axis", "lambda",
                          "--values", *[f"{v:g}" for v in w.lambdas], "--sr", "0.5",
                          "--rank", str(w.rank), "--seed", str(SEED), "--out", str(base / "out"),
                          "--report", str(base / "out" / "report.csv")])
    assert code == 0
    omega = srtd.random_mask(w.shape, 0.5, SEED)
    return w, truth, omega, base / "out"


@pytest.fixture
def out(cli_output, tmp_path):
    w, truth, omega, src = cli_output
    copy = tmp_path / "out"
    shutil.copytree(src, copy)
    return copy


def _check(cli_output, out):
    w, truth, omega, _ = cli_output
    checks, _ = check_cli(w, truth, omega, SEED, out, out / "report.csv")
    return {k for k, v in checks.items() if v}


def test_cli_checks_pass_on_real_output(cli_output, out):
    assert _check(cli_output, out) == set()


def test_cli_check_catches_a_dropped_report_row(cli_output, out):
    report = out / "report.csv"
    lines = report.read_text().splitlines(keepends=True)
    report.write_text("".join(lines[:-1]))
    assert "report_rows" in _check(cli_output, out)


def test_cli_check_catches_a_wrong_schema(cli_output, out):
    report = out / "report.csv"
    report.write_text(report.read_text().replace("srtd-report-v1", "srtd-report-v0"))
    assert "report_schema" in _check(cli_output, out)


def test_cli_check_catches_a_truncated_frame(cli_output, out):
    w = cli_output[0]
    frame = sorted(frames_dir(out, w.lambdas[1]).iterdir())[0]
    frame.write_bytes(frame.read_bytes()[:-1])
    assert "frames_decoded" in _check(cli_output, out)


def test_cli_check_catches_an_altered_observed_pixel(cli_output, out):
    w, truth, omega, _ = cli_output
    frame = sorted(frames_dir(out, w.lambdas[0]).iterdir())[0]
    raw = bytearray(frame.read_bytes())
    header = len(raw) - truth.shape[0] * truth.shape[1]
    i = int(np.flatnonzero(omega[:, :, 0])[0])
    raw[header + i] ^= 1
    frame.write_bytes(bytes(raw))
    assert _check(cli_output, out) == {"frames_observed"}


def test_cli_check_catches_a_psnr_column_off_the_frames(cli_output, out):
    report = out / "report.csv"
    lines = report.read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[4] = f"{float(fields[4]) + 1.0:.6f}"
    lines[2] = ",".join(fields)
    report.write_text("".join(lines))
    assert _check(cli_output, out) == {"psnr_matches_report"}
