"""Workload definitions and the benchmark's own input generator, P5 codec
and PSNR formula. None of this calls srtd, so the inputs and the checks do
not move when the program under test changes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple          # n1, n2, n3
    rank: int             # tubal rank of the ground truth = truncation rank
    lam: float = 0.01
    stop_mode: str = "relative"
    lambdas: tuple = ()   # non-empty: run as `srtd sweep --axis lambda` on P5 frames
    psnr_floor: float = 0.0

    @property
    def is_cli(self) -> bool:
        return bool(self.lambdas)


# Every ground truth is an exact tubal-rank-r t-product of two uniform
# [0, 1) tensors, scaled so its largest entry is 255, with half the
# entries observed. PSNR floors sit under the lowest value seen and above
# what filling with the observed mean scores (README.md lists both).
WORKLOADS = {w.name: w for w in (
    Workload("image_rgb", (256, 256, 3), 8, psnr_floor=56.0),
    Workload("video_tight", (64, 64, 32), 4, stop_mode="absolute", psnr_floor=44.0),
    Workload("cli_sweep", (64, 64, 16), 4, lambdas=(0.0, 0.01, 0.1), psnr_floor=30.0),
)}

# Same settings at toy sizes, for the benchmark's own smoke test.
TINY = {name: replace(w, shape=(12, 10, min(w.shape[2], 4)), rank=2, psnr_floor=20.0)
        for name, w in WORKLOADS.items()}

SAMPLING_RATE = 0.5
PEAK = 255.0


@dataclass(frozen=True)
class Inputs:
    truth: np.ndarray     # ground truth; for the CLI workload, the 8-bit frames
    omega: np.ndarray | None     # observed entries; None where the CLI draws the mask
    observed: np.ndarray | None  # truth on omega, 0 elsewhere


def low_rank_truth(shape, rank: int, rng: np.random.Generator) -> np.ndarray:
    """t-product of (n1,r,n3) by (r,n2,n3) uniform factors, computed slice
    by slice in the mode-3 Fourier domain, scaled to a maximum of 255."""
    n1, n2, n3 = shape
    fa = np.fft.fft(rng.random((n1, rank, n3)), axis=2)
    fb = np.fft.fft(rng.random((rank, n2, n3)), axis=2)
    g = np.fft.ifft(np.einsum("ikt,kjt->ijt", fa, fb), axis=2).real
    return g * (PEAK / g.max())


def uniform_mask(shape, rng: np.random.Generator) -> np.ndarray:
    total = int(np.prod(shape))
    flat = np.zeros(total, dtype=bool)
    flat[rng.permutation(total)[:int(round(SAMPLING_RATE * total))]] = True
    return flat.reshape(shape)


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    truth = low_rank_truth(w.shape, w.rank, rng)
    if w.is_cli:
        return Inputs(np.floor(truth + 0.5), None, None)   # what 8-bit frames hold
    omega = uniform_mask(w.shape, rng)
    return Inputs(truth, omega, np.where(omega, truth, 0.0))


def psnr(x: np.ndarray, truth: np.ndarray) -> float:
    """10 log10(255^2 / MSE), MSE over all entries."""
    mse = float(np.mean((np.asarray(x, dtype=np.float64) - truth) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(PEAK * PEAK / mse)


def write_frames(truth: np.ndarray, directory: Path) -> None:
    """One binary P5 file per frontal slice, frame_0000.pgm, frame_0001.pgm, ..."""
    directory.mkdir(parents=True, exist_ok=True)
    h, w, n3 = truth.shape
    for k in range(n3):
        raster = truth[:, :, k].astype(np.uint8).tobytes()
        (directory / f"frame_{k:04d}.pgm").write_bytes(b"P5\n%d %d\n255\n" % (w, h) + raster)


class P5Error(ValueError):
    pass


def read_p5(path: Path) -> np.ndarray:
    """Decode an 8-bit binary graymap with a comment-free header."""
    buf = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise P5Error(f"{path}: header ends early")
        fields.append(buf[start:pos])
    magic, width, height, maxval = fields
    if magic != b"P5" or maxval != b"255" or not (width.isdigit() and height.isdigit()):
        raise P5Error(f"{path}: not an 8-bit P5 header: {fields!r}")
    w, h = int(width), int(height)
    raster = buf[pos + 1:]
    if len(raster) != w * h:
        raise P5Error(f"{path}: raster has {len(raster)} bytes, expected {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.float64)


def read_frames(directory: Path) -> np.ndarray:
    names = sorted(Path(directory).glob("*.pgm"))
    if not names:
        raise P5Error(f"no frames in {directory}")
    return np.stack([read_p5(n) for n in names], axis=2)
