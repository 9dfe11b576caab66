"""Binary PNM codec: header parsing, raster layout, quantization, video stacks."""

import numpy as np
import pytest

from srtd.errors import FormatError, ParameterError
from srtd.evalkit import mask_from_image
from srtd.pnm import load_image, load_video, save_image


def _write(path, payload: bytes):
    path.write_bytes(payload)
    return path


def test_load_p5_single_pixel(tmp_path):
    path = _write(tmp_path / "one.pgm", b"P5\n1 1\n255\n" + bytes([128]))
    t = load_image(path)
    assert t.shape == (1, 1, 1)
    assert t.dtype == np.float64
    assert t[0, 0, 0] == 128.0


def test_load_p6_channel_order(tmp_path):
    # 2x2 pixels, RGB triples in row-major order
    raster = bytes([
        10, 20, 30,   40, 50, 60,
        70, 80, 90,   100, 110, 120,
    ])
    path = _write(tmp_path / "rgb.ppm", b"P6\n2 2\n255\n" + raster)
    t = load_image(path)
    assert t.shape == (2, 2, 3)
    assert np.array_equal(t[0, 0], [10, 20, 30])
    assert np.array_equal(t[0, 1], [40, 50, 60])
    assert np.array_equal(t[1, 1], [100, 110, 120])


def test_load_accepts_header_comments(tmp_path):
    raw = b"P5 # magic\n# a comment line\n 2 # width\n1\n# another\n255\n" + bytes([7, 9])
    t = load_image(_write(tmp_path / "c.pgm", raw))
    assert t.shape == (1, 2, 1)
    assert np.array_equal(t.ravel(), [7, 9])


def test_load_rejects_bad_magic(tmp_path):
    path = _write(tmp_path / "bad.pgm", b"P7\n1 1\n255\n\x00")
    with pytest.raises(FormatError, match="byte 0"):
        load_image(path)


def test_load_rejects_wide_maxval(tmp_path):
    path = _write(tmp_path / "deep.pgm", b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError, match="maxval"):
        load_image(path)


def test_load_rejects_non_numeric_header(tmp_path):
    path = _write(tmp_path / "text.pgm", b"P5\nwide 1\n255\n\x00")
    with pytest.raises(FormatError, match="width"):
        load_image(path)


def test_load_rejects_truncated_raster(tmp_path):
    path = _write(tmp_path / "short.pgm", b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(FormatError, match="truncated"):
        load_image(path)


def test_load_rejects_missing_raster_separator(tmp_path):
    path = _write(tmp_path / "glued.pgm", b"P5\n1 1\n255")
    with pytest.raises(FormatError, match="whitespace"):
        load_image(path)


def test_save_quantization_rules(tmp_path):
    t = np.array([255.7, -3.0, 127.5, 127.4]).reshape(2, 2, 1)
    path = tmp_path / "q.pgm"
    save_image(t, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [255, 0, 128, 127]


def test_save_color_header(tmp_path):
    path = tmp_path / "c.ppm"
    save_image(np.zeros((3, 5, 3)), path)
    assert path.read_bytes().startswith(b"P6\n5 3\n255\n")


def test_save_rejects_bad_channel_count(tmp_path):
    with pytest.raises(ParameterError):
        save_image(np.zeros((2, 2, 2)), tmp_path / "x.pnm")


def test_roundtrip_is_identity_on_8bit_data(tmp_path):
    rng = np.random.default_rng(0)
    for name, channels in (("g.pgm", 1), ("c.ppm", 3)):
        img = rng.integers(0, 256, size=(7, 5, channels)).astype(np.float64)
        path = tmp_path / name
        save_image(img, path)
        again = load_image(path)
        assert np.array_equal(again, img)
        save_image(again, tmp_path / ("again_" + name))
        assert (tmp_path / ("again_" + name)).read_bytes() == path.read_bytes()


def test_video_single_frame_matches_image(tmp_path):
    rng = np.random.default_rng(1)
    frame = rng.integers(0, 256, size=(4, 6, 1)).astype(np.float64)
    vid = tmp_path / "vid"
    vid.mkdir()
    save_image(frame, vid / "frame_0000.pgm")
    t = load_video(vid)
    assert np.array_equal(t, frame)


def test_video_stacks_frames_in_name_order(tmp_path):
    vid = tmp_path / "vid"
    vid.mkdir()
    # write out of order; loading must sort lexicographically
    for idx in (2, 0, 1):
        save_image(np.full((3, 4, 1), float(idx)), vid / f"frame_{idx:04d}.pgm")
    t = load_video(vid)
    assert t.shape == (3, 4, 3)
    for idx in range(3):
        assert np.all(t[:, :, idx] == idx)


def test_video_accepts_glob(tmp_path):
    for idx in range(4):
        save_image(np.full((2, 2, 1), float(idx)), tmp_path / f"f{idx}.pgm")
    t = load_video(str(tmp_path / "f*.pgm"))
    assert t.shape == (2, 2, 4)
    assert np.array_equal(t[0, 0, :], np.arange(4.0))


def test_video_identical_frames(tmp_path):
    vid = tmp_path / "vid"
    vid.mkdir()
    frame = np.full((3, 3, 1), 42.0)
    for idx in range(3):
        save_image(frame, vid / f"{idx}.pgm")
    t = load_video(vid)
    for k in range(3):
        assert np.array_equal(t[:, :, k], frame[:, :, 0])


def test_video_rejects_mismatched_frame_sizes(tmp_path):
    vid = tmp_path / "vid"
    vid.mkdir()
    save_image(np.zeros((3, 3, 1)), vid / "a.pgm")
    save_image(np.zeros((3, 4, 1)), vid / "b.pgm")
    with pytest.raises(FormatError, match="size"):
        load_video(vid)


def test_video_rejects_color_frames(tmp_path):
    vid = tmp_path / "vid"
    vid.mkdir()
    save_image(np.zeros((2, 2, 3)), vid / "a.ppm")
    with pytest.raises(FormatError, match="graymap"):
        load_video(vid)


def test_video_rejects_empty_source(tmp_path):
    vid = tmp_path / "vid"
    vid.mkdir()
    with pytest.raises(FormatError, match="no frames"):
        load_video(vid)


def test_load_scales_a_small_maxval_to_255(tmp_path):
    # samples are scaled by 255/maxval: with maxval 15 a white sample 15
    # reads as 255.0 and writes back as 255, not as 15 of 255
    path = _write(tmp_path / "four_bit.pgm", b"P5\n3 1\n15\n" + bytes([15, 0, 5]))
    t = load_image(path)
    assert t.ravel().tolist() == [255.0, 0.0, 85.0]
    save_image(t, tmp_path / "back.pgm")
    assert (tmp_path / "back.pgm").read_bytes() == b"P5\n3 1\n255\n" + bytes([255, 0, 85])
    for maxval in range(1, 255):
        raw = b"P5\n1 1\n%d\n" % maxval + bytes([maxval])
        assert load_image(_write(tmp_path / "m.pgm", raw))[0, 0, 0] == 255.0


def test_a_mask_file_keeps_its_zero_pattern_at_any_maxval(tmp_path):
    # nonzero pixels are missing, zero ones observed, whatever the maxval
    raster = bytes([0, 1, 0, 3])
    for maxval in (1, 3, 255):
        path = _write(tmp_path / "mask.pgm", b"P5\n2 2\n%d\n" % maxval + raster)
        omega = mask_from_image(path)
        assert omega[:, :, 0].tolist() == [[True, False], [True, False]]


def test_video_skips_subdirectories_from_a_directory_and_a_glob(tmp_path):
    # the same tree read as a directory and as a glob: the subdirectory,
    # which a glob matches too, is not a frame
    vid = tmp_path / "frames"
    vid.mkdir()
    for idx in range(3):
        save_image(np.full((2, 3, 1), float(idx)), vid / f"frame_{idx:04d}.pgm")
    (vid / "frame_sub").mkdir()
    by_dir = load_video(vid)
    by_glob = load_video(str(vid / "*"))
    assert by_dir.shape == (2, 3, 3)
    assert np.array_equal(by_dir, by_glob)
