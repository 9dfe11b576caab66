"""CLI behavior: subcommands, exit codes, report files, config merging,
sweeps, and the video path. All invocations run in-process via cli.main."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srtd
from srtd import cli
from srtd.errors import DivergenceError
from srtd.evalkit import mask_from_image
from srtd.pnm import load_image, save_image


def _write_image(path, shape=(10, 8, 3), seed=0):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=shape).astype(np.float64)
    save_image(img, path)
    return img


def _read_report(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# srtd-report-v1"
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def test_complete_writes_recovered_and_report(tmp_path):
    img_path = tmp_path / "toy.ppm"
    _write_image(img_path)
    out = tmp_path / "out"
    rc = cli.main(["complete", "--input", str(img_path), "--sr", "0.5", "--seed", "1",
                   "--rank", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "toy_recovered.ppm").is_file()
    header, rows = _read_report(out / "report.csv")
    assert header == list(cli.REPORT_COLUMNS)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["input"] == str(img_path)
    assert row["mask"] == "random:sr=0.5:seed=1"
    assert row["lambda"] == "0.05"
    assert row["rank"] == "2"
    float(row["psnr_standard"])
    float(row["psnr_paper"])
    assert int(row["outer_iters"]) >= 1
    assert int(row["seed"]) == 1


def test_complete_fully_observed_is_identity(tmp_path):
    img_path = tmp_path / "toy.ppm"
    img = _write_image(img_path, seed=3)
    out = tmp_path / "out"
    rc = cli.main(["complete", "--input", str(img_path), "--sr", "1.0",
                   "--rank", "2", "--out", str(out)])
    assert rc == 0
    resaved = tmp_path / "resaved.ppm"
    save_image(img, resaved)
    assert (out / "toy_recovered.ppm").read_bytes() == resaved.read_bytes()
    _, rows = _read_report(out / "report.csv")
    assert rows[0][4] == "inf" and rows[0][5] == "inf"


def test_bad_argument_exit_codes(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    base = ["complete", "--input", str(img_path), "--out", str(tmp_path / "o")]
    assert cli.main(base + ["--sr", "0.5"]) == 2  # rank missing
    assert cli.main(base + ["--sr", "1.5", "--rank", "2"]) == 2
    assert cli.main(base + ["--rank", "2"]) == 2  # no mask source
    assert cli.main(["complete", "--input", str(tmp_path / "ghost.pgm"),
                     "--sr", "0.5", "--rank", "2"]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2",
                            "--mask-file", str(tmp_path / "ghost_mask.pgm")]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--jobs", "0"]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--lambda", "nan"]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--mu-max", "nan"]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--rho", "inf"]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--mu-init", "inf"]) == 2
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--eps", "inf"]) == 2
    # numpy's generators raise ValueError on a negative seed
    assert cli.main(base + ["--sr", "0.5", "--rank", "2", "--seed", "-1"]) == 2
    assert cli.main(["psnr", "--input", str(img_path), "--ref", str(img_path),
                     "--sr", "0.5", "--seed", "-1"]) == 2


@pytest.mark.parametrize("args", [
    ["complete", "--sr", "1.5", "--rank", "2"],
    ["complete", "--rank", "2"],  # no mask source
    ["complete", "--sr", "0.5", "--rank", "9"],  # more than min(6, 6)
    ["sweep", "--sr", "0.5", "--rank", "2", "--axis", "rank", "--values", "2", "9"],
    ["sweep", "--rank", "2", "--axis", "sr", "--values", "0.5", "1.5"],
    ["sweep", "--rank", "2", "--axis", "lambda", "--values", "0.1"],  # no mask source
    # both solves would write toy_lambda0.1_recovered.pgm
    ["sweep", "--sr", "0.5", "--rank", "1", "--axis", "lambda", "--values", "0.1", "0.1"],
], ids=["sr", "no-mask", "rank", "sweep-rank", "sweep-sr", "sweep-no-mask", "sweep-same-tag"])
def test_a_rejected_run_leaves_no_output_directory(tmp_path, args):
    # the inputs, masks and ranks are checked before the output directory
    # is made, so a run that exits 2 leaves nothing behind
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    out = tmp_path / "o"
    assert cli.main([*args, "--input", str(img_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_inputs_with_one_stem_are_rejected(tmp_path, capsys):
    # a/x.pgm and b/x.pgm would both be recovered as x_recovered.pgm: the
    # run exits 2, names both inputs, and makes no output directory
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.pgm")
        _write_image(paths[-1], shape=(6, 6, 1))
    out = tmp_path / "o"
    assert cli.main(["complete", "--input", *map(str, paths), "--sr", "0.5", "--rank", "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not out.exists()


def test_argparse_rejects_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_format_error_exit_code(tmp_path):
    bad = tmp_path / "broken.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n\x00")
    rc = cli.main(["complete", "--input", str(bad), "--sr", "0.5", "--rank", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 3


def test_divergence_exit_code_keeps_partial_report(tmp_path, monkeypatch):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    _write_image(a, shape=(6, 6, 1), seed=1)
    _write_image(b, shape=(6, 6, 1), seed=2)
    real = cli.srtd_complete
    calls = []

    def flaky(m, omega, cfg):
        calls.append(1)
        if len(calls) >= 2:
            raise DivergenceError("synthetic blow-up", inner_iter=3)
        return real(m, omega, cfg)

    monkeypatch.setattr(cli, "srtd_complete", flaky)
    out = tmp_path / "out"
    rc = cli.main(["complete", "--input", str(a), str(b), "--sr", "0.5",
                   "--rank", "2", "--out", str(out)])
    assert rc == 4
    _, rows = _read_report(out / "report.csv")
    assert len(rows) == 1
    assert rows[0][0] == str(a)


def test_numerical_error_exit_code(tmp_path, monkeypatch, capsys):
    img = tmp_path / "a.pgm"
    _write_image(img, shape=(6, 6, 1))

    def unsolvable(m, omega, cfg):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "srtd_complete", unsolvable)
    rc = cli.main(["complete", "--input", str(img), "--sr", "0.5", "--rank", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 5
    assert capsys.readouterr().err == "srtd: numerical error: SVD did not converge\n"


def test_config_file_merge_and_flag_precedence(tmp_path):
    img_path = tmp_path / "toy.ppm"
    _write_image(img_path)
    out = tmp_path / "out"
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "input": str(img_path), "sr": 0.6, "rank": 2,
        "lambda": 0.02, "max_inner": 20, "out": str(out),
    }))
    rc = cli.main(["complete", "--config", str(config), "--lambda", "0.05"])
    assert rc == 0
    _, rows = _read_report(out / "report.csv")
    row = dict(zip(cli.REPORT_COLUMNS, rows[0]))
    assert row["lambda"] == "0.05"  # flag beats config
    assert row["rank"] == "2"  # config beats default
    assert row["mask"] == "random:sr=0.6:seed=0"


def test_config_file_errors(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(4, 4, 1))
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"verbosity": 3}')
    args = ["complete", "--input", str(img_path), "--sr", "0.5", "--rank", "1"]
    assert cli.main(args + ["--config", str(unknown)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(args + ["--config", str(garbled)]) == 3
    assert cli.main(args + ["--config", str(tmp_path / "missing.json")]) == 2
    # a config's values get the checks the same flags get on the command line
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"psnr_mode": "bogus"}')
    assert cli.main(args + ["--out", str(tmp_path / "out"), "--config", str(bogus)]) == 2
    assert cli.main(["psnr", "--input", str(img_path), "--ref", str(img_path),
                     "--config", str(bogus)]) == 2
    sweep = ["sweep", "--input", str(img_path), "--sr", "0.5", "--rank", "1",
             "--out", str(tmp_path / "out"), "--axis", "lambda"]
    for values in (0.1, ["x"], [], [True], None):
        config = tmp_path / "values.json"
        config.write_text(json.dumps({"values": values}))
        assert cli.main(sweep + ["--config", str(config)]) == 2
    paths = tmp_path / "paths.json"
    for key, value in (("report", 7), ("out", ["a"]), ("mask_file", 3), ("input", 5),
                       ("input", [str(img_path), 4])):
        paths.write_text(json.dumps({key: value}))
        argv = ["complete", "--sr", "0.5", "--rank", "1", "--config", str(paths)]
        if key != "input":
            argv += ["--input", str(img_path)]
        if key != "out":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
    for key in ("sr", "lambda"):
        paths.write_text(json.dumps({key: True}))
        assert cli.main(["complete", "--input", str(img_path), "--rank", "1",
                         "--out", str(tmp_path / "out"), "--config", str(paths)]) == 2
    paths.write_text('{"ref": 3}')
    assert cli.main(["psnr", "--input", str(img_path), "--config", str(paths)]) == 2
    paths.write_text('{"seed": -1}')
    assert cli.main(args + ["--out", str(tmp_path / "out"), "--config", str(paths)]) == 2
    assert cli.main(["psnr", "--input", str(img_path), "--ref", str(img_path), "--sr", "0.5",
                     "--config", str(paths)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["seed", "rank", "max_inner", "jobs"])
@pytest.mark.parametrize("value", [2.5, True, float("inf")], ids=["fraction", "bool", "inf"])
def test_config_file_rejects_non_integral_counts(tmp_path, key, value):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(4, 4, 1))
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({key: value}))
    args = ["complete", "--input", str(img_path), "--sr", "0.5", "--rank", "1",
            "--out", str(tmp_path / "out"), "--config", str(config)]
    if key == "rank":
        args.remove("--rank")
        args.remove("1")
    assert cli.main(args) == 2


def test_config_file_accepts_integral_float_counts(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    out = tmp_path / "out"
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"rank": 2.0, "max_inner": 20.0, "seed": 3.0}))
    rc = cli.main(["complete", "--input", str(img_path), "--sr", "0.5", "--out", str(out),
                   "--config", str(config)])
    assert rc == 0
    _, rows = _read_report(out / "report.csv")
    row = dict(zip(cli.REPORT_COLUMNS, rows[0]))
    assert row["rank"] == "2" and row["seed"] == "3"


def test_sweep_lambda_is_mask_matched(tmp_path):
    img_path = tmp_path / "toy.ppm"
    _write_image(img_path)
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--input", str(img_path), "--sr", "0.5", "--rank", "2",
                   "--out", str(out),
                   "--axis", "lambda", "--values", "0", "0.01", "0.05"])
    assert rc == 0
    _, rows = _read_report(out / "report.csv")
    assert len(rows) == 3
    assert [r[2] for r in rows] == ["0", "0.01", "0.05"]
    assert len({r[1] for r in rows}) == 1  # same mask id on every row
    for tag in ("lambda0", "lambda0.01", "lambda0.05"):
        assert (out / f"toy_{tag}_recovered.ppm").is_file()


def test_sweep_rank_axis(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(8, 8, 1))
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--input", str(img_path), "--sr", "0.6", "--rank", "1",
                   "--out", str(out),
                   "--axis", "rank", "--values", "1", "2", "3"])
    assert rc == 0
    _, rows = _read_report(out / "report.csv")
    assert [r[3] for r in rows] == ["1", "2", "3"]


def test_sweep_rank_rejects_fractional_values(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    for value in ("1.5", "nan", "inf"):  # nan and inf are not integers either
        rc = cli.main(["sweep", "--input", str(img_path), "--sr", "0.5", "--rank", "1",
                       "--out", str(tmp_path / "o"), "--axis", "rank", "--values", value])
        assert rc == 2


def test_sweep_sr_axis_json_report(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(8, 6, 1))
    out = tmp_path / "out"
    report = out / "report.json"
    rc = cli.main(["sweep", "--input", str(img_path), "--rank", "2",
                   "--out", str(out), "--report", str(report),
                   "--axis", "sr", "--values", "0.4", "0.8"])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == "srtd-report-v1"
    masks = [row["mask"] for row in payload["rows"]]
    assert masks == ["random:sr=0.4:seed=0", "random:sr=0.8:seed=0"]


def test_sweep_requires_axis_and_values(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    base = ["sweep", "--input", str(img_path), "--sr", "0.5", "--rank", "1",
            "--out", str(tmp_path / "o")]
    assert cli.main(base) == 2
    assert cli.main(base + ["--axis", "lambda"]) == 2


def test_sweep_parallel_jobs_match_serial(tmp_path):
    img_path = tmp_path / "toy.ppm"
    _write_image(img_path, seed=5)
    reports = []
    for jobs, name in (("1", "serial"), ("3", "parallel")):
        out = tmp_path / name
        rc = cli.main(["sweep", "--input", str(img_path), "--sr", "0.5", "--rank", "2",
                       "--out", str(out), "--jobs", jobs,
                       "--axis", "lambda", "--values", "0", "0.05", "0.1"])
        assert rc == 0
        _, rows = _read_report(out / "report.csv")
        reports.append([r[:8] + r[9:] for r in rows])  # drop wall_time
    assert reports[0] == reports[1]
    for tag in ("lambda0", "lambda0.05", "lambda0.1"):
        name = f"toy_{tag}_recovered.ppm"
        assert (tmp_path / "serial" / name).read_bytes() == \
               (tmp_path / "parallel" / name).read_bytes()


def test_psnr_subcommand(tmp_path, capsys):
    ref_path, rec_path = tmp_path / "ref.pgm", tmp_path / "rec.pgm"
    save_image(np.full((6, 5, 1), 100.0), ref_path)
    save_image(np.full((6, 5, 1), 110.0), rec_path)
    rc = cli.main(["psnr", "--input", str(rec_path), "--ref", str(ref_path),
                   "--psnr-mode", "both", "--sr", "0.5", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    standard = float(out[0].split()[1])
    assert standard == pytest.approx(10 * math.log10(255.0 ** 2 / 100.0), abs=1e-5)
    assert out[1].startswith("paper: ")
    float(out[1].split()[1])


def test_psnr_subcommand_identical_inputs(tmp_path, capsys):
    path = tmp_path / "same.pgm"
    _write_image(path, shape=(5, 5, 1), seed=8)
    rc = cli.main(["psnr", "--input", str(path), "--ref", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "standard: inf dB"


def test_psnr_subcommand_shape_mismatch(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    _write_image(a, shape=(5, 5, 1))
    _write_image(b, shape=(5, 6, 1))
    assert cli.main(["psnr", "--input", str(a), "--ref", str(b)]) == 2


def test_video_pipeline(tmp_path):
    vid = tmp_path / "clip"
    vid.mkdir()
    rng = np.random.default_rng(9)
    for idx in range(3):
        save_image(rng.integers(0, 256, size=(8, 6, 1)).astype(float),
                   vid / f"frame_{idx:02d}.pgm")
    out = tmp_path / "out"
    rc = cli.main(["complete", "--input", str(vid), "--sr", "0.6", "--rank", "2",
                   "--out", str(out)])
    assert rc == 0
    frames = sorted((out / "clip_recovered").iterdir())
    assert [f.name for f in frames] == ["frame_0000.pgm", "frame_0001.pgm", "frame_0002.pgm"]
    for f in frames:
        assert load_image(f).shape == (8, 6, 1)
    _, rows = _read_report(out / "report.csv")
    assert rows[0][0] == str(vid)


def test_mask_file_flow(tmp_path):
    img_path = tmp_path / "toy.ppm"
    img = _write_image(img_path, shape=(6, 4, 3), seed=11)
    mask_img = np.zeros((6, 4, 1))
    mask_img[::2, ::2, 0] = 255.0  # missing pixels
    mask_path = tmp_path / "mask.pgm"
    save_image(mask_img, mask_path)
    out = tmp_path / "out"
    rc = cli.main(["complete", "--input", str(img_path), "--mask-file", str(mask_path),
                   "--rank", "2", "--out", str(out)])
    assert rc == 0
    _, rows = _read_report(out / "report.csv")
    assert rows[0][1] == f"file:{mask_path}"
    omega = mask_from_image(mask_path, depth=3)
    recovered = load_image(out / "toy_recovered.ppm")
    assert np.array_equal(recovered[omega], img[omega])


def test_mask_file_dim_mismatch(tmp_path):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    mask_path = tmp_path / "mask.pgm"
    save_image(np.zeros((3, 3, 1)), mask_path)
    rc = cli.main(["complete", "--input", str(img_path), "--mask-file", str(mask_path),
                   "--rank", "2", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command", ["complete", "psnr"])
def test_mask_file_dim_mismatch_message(tmp_path, capsys, command):
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    mask_path = tmp_path / "mask.pgm"
    save_image(np.zeros((3, 3, 1)), mask_path)
    extra = (["--rank", "2", "--out", str(tmp_path / "o")] if command == "complete"
             else ["--ref", str(img_path), "--psnr-mode", "paper"])
    rc = cli.main([command, "--input", str(img_path), "--mask-file", str(mask_path)] + extra)
    assert rc == 2
    assert capsys.readouterr().err == f"srtd: error: mask {mask_path} is 3x3, input is 6x6\n"


def test_serial_runs_load_no_thread_pool(tmp_path):
    # concurrent.futures, and the logging it loads, cost every process
    # about 0.5 MB and 5 ms; only a run with --jobs above 1 needs them
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(8, 7, 1))
    psnr_args = ["psnr", "--input", str(img_path), "--ref", str(img_path)]
    complete_args = ["complete", "--input", str(img_path), "--sr", "0.6", "--rank", "2",
                     "--out", str(tmp_path / "o"), "--jobs", "1"]
    code = (
        "import sys\n"
        "import srtd.cli\n"
        f"assert srtd.cli.main({psnr_args!r}) == 0\n"
        f"assert srtd.cli.main({complete_args!r}) == 0\n"
        "print(sorted(k for k in ('concurrent.futures', 'logging') if k in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(srtd.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "[]"


def test_python_m_runs_the_cli(tmp_path):
    # python -m srtd.cli runs entry(), as the srtd console script does
    _write_image(tmp_path / "toy.pgm", shape=(6, 6, 1))
    env = dict(os.environ, PYTHONPATH=str(Path(srtd.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-m", "srtd.cli", "complete", "--input", "toy.pgm",
                    "--sr", "0.5", "--rank", "1", "--out", "o"],
                   cwd=tmp_path, env=env, capture_output=True, check=True, timeout=60)
    assert (tmp_path / "o" / "toy_recovered.pgm").is_file()
    assert (tmp_path / "o" / "report.csv").read_text().splitlines()[0] == "# srtd-report-v1"


def test_video_glob_and_directory_read_the_same_frames(tmp_path):
    # a subdirectory among the frames is skipped by either form of --input
    vid = tmp_path / "frames"
    vid.mkdir()
    rng = np.random.default_rng(12)
    for idx in range(3):
        save_image(rng.integers(0, 256, size=(6, 5, 1)).astype(float),
                   vid / f"frame_{idx:02d}.pgm")
    (vid / "extra").mkdir()
    recovered = []
    for source, out in ((str(vid / "*"), tmp_path / "by_glob"), (str(vid), tmp_path / "by_dir")):
        rc = cli.main(["complete", "--input", source, "--sr", "0.5", "--rank", "1",
                       "--out", str(out)])
        assert rc == 0
        recovered.append([f.read_bytes() for f in sorted((out / "frames_recovered").iterdir())])
    assert len(recovered[0]) == 3 and recovered[0] == recovered[1]


def test_rank_zero_runs_the_tensor_nuclear_norm(tmp_path):
    # r = 0 shrinks every singular value; a negative rank is an argument error
    img_path = tmp_path / "toy.pgm"
    _write_image(img_path, shape=(6, 6, 1))
    out = tmp_path / "out"
    base = ["--input", str(img_path), "--sr", "0.5", "--out", str(out)]
    assert cli.main(["complete", *base, "--rank", "-1"]) == 2
    assert not out.exists()
    assert cli.main(["complete", *base, "--rank", "0"]) == 0
    assert (out / "toy_recovered.pgm").is_file()
    assert cli.main(["sweep", *base, "--rank", "1", "--axis", "rank", "--values", "0", "4"]) == 0
    _, rows = _read_report(out / "report.csv")
    assert [r[3] for r in rows] == ["0", "4"]
    assert (out / "toy_rank0_recovered.pgm").is_file()
