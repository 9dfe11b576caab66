"""Binary PNM (P5 graymap / P6 pixmap) reader and writer, 8-bit only.

Parse errors name the byte offset where the problem sits, so a bad file can
be inspected with a hex dump. Pixel values are returned as float64 in
[0, 255], a file's maxval below 255 scaled up to 255; writing clamps to
[0, 255] and rounds half away from zero.
"""

from __future__ import annotations

import glob
import os

import numpy as np

from .errors import FormatError, ParameterError
from .tensor_core import Tensor3, astensor3

_WHITESPACE = b" \t\n\r\v\f"


def _skip_space(buf: bytes, pos: int) -> int:
    # PNM headers allow '#' comments running to end of line
    n = len(buf)
    while pos < n:
        if buf[pos] in _WHITESPACE:
            pos += 1
        elif buf[pos] == 0x23:
            while pos < n and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _read_int(buf: bytes, pos: int, what: str):
    pos = _skip_space(buf, pos)
    start = pos
    while pos < len(buf) and buf[pos] not in _WHITESPACE and buf[pos] != 0x23:
        pos += 1
    token = buf[start:pos]
    if not token.isdigit():
        raise FormatError(f"expected {what} at byte {start}, got {token!r}")
    return int(token), pos


def load_image(path) -> Tensor3:
    """Read a binary graymap or pixmap; gray gives (h, w, 1), color (h, w, 3).
    Samples are scaled by 255/maxval, so that maxval reads as 255, the peak
    the solver, PSNR and ``save_image`` assume; zero stays zero."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"P5":
        channels = 1
    elif buf[:2] == b"P6":
        channels = 3
    else:
        raise FormatError(f"{path}: expected magic P5 or P6 at byte 0, got {buf[:2]!r}")
    width, pos = _read_int(buf, 2, "width")
    height, pos = _read_int(buf, pos, "height")
    maxval, pos = _read_int(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height} in header before byte {pos}")
    if not 0 < maxval <= 255:
        raise FormatError(f"{path}: maxval {maxval} before byte {pos} is not 8-bit")
    if pos >= len(buf) or buf[pos] not in _WHITESPACE:
        raise FormatError(f"{path}: expected single whitespace after maxval at byte {pos}")
    pos += 1
    need = width * height * channels
    raster = buf[pos:pos + need]
    if len(raster) < need:
        raise FormatError(
            f"{path}: raster truncated, expected {need} bytes from byte {pos}, found {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    if maxval < 255:
        pixels = pixels * 255.0 / maxval  # one rounding per sample: maxval reads as 255.0
    return pixels.reshape(height, width, channels)


def save_image(t: Tensor3, path) -> None:
    """Write (h, w, 1) as P5 or (h, w, 3) as P6 with maxval 255."""
    t = astensor3(t, "t")
    h, w, n3 = t.shape
    if n3 not in (1, 3):
        raise ParameterError(f"image tensors need 1 or 3 channels, got {n3}")
    # clamp then round half away from zero: floor(v + 0.5) on non-negatives
    quant = np.floor(np.clip(t, 0.0, 255.0) + 0.5).astype(np.uint8)
    magic = b"P5" if n3 == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(quant.tobytes())


def load_video(dir_or_glob) -> Tensor3:
    """Stack same-sized P5 frames along mode 3, lexicographic filename order.
    Only files are frames: a directory's or a glob's subdirectories are
    skipped."""
    dir_or_glob = os.fspath(dir_or_glob)
    if os.path.isdir(dir_or_glob):
        names = [os.path.join(dir_or_glob, n) for n in sorted(os.listdir(dir_or_glob))]
    else:
        names = sorted(glob.glob(dir_or_glob))
    names = [n for n in names if os.path.isfile(n)]
    if not names:
        raise FormatError(f"no frames found at {dir_or_glob}")
    frames = []
    for name in names:
        frame = load_image(name)
        if frame.shape[2] != 1:
            raise FormatError(f"video frame {name} must be a graymap (P5)")
        if frames and frame.shape != frames[0].shape:
            raise FormatError(
                f"video frame {name} has size {frame.shape[:2]}, expected {frames[0].shape[:2]}")
        frames.append(frame)
    return np.concatenate(frames, axis=2)
