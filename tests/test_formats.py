"""File-format round trips: PPM images, depth rasters, manifests, checkpoints."""

import dataclasses
import errno
import os
import re

import numpy as np
import pytest

from depthcrf import unary
from depthcrf.config import ConfigError, RunConfig, config_from_mapping
from depthcrf.formats import (
    Checkpoint,
    FormatError,
    read_checkpoint,
    read_depth_raster,
    read_history,
    read_manifest,
    read_ppm,
    write_checkpoint,
    write_depth_raster,
    write_history,
    write_manifest,
    write_ppm,
    write_table,
)
from depthcrf.training import EpochStats
from testutil import corruptions


def test_ppm_round_trip_is_exact_on_the_8bit_grid(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(5, 7, 3)) / 255.0
    path = tmp_path / "img.ppm"
    write_ppm(path, image)
    assert np.array_equal(read_ppm(path), image)


def test_ppm_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    image = rng.random((6, 4, 3))
    write_ppm(tmp_path / "a.ppm", image)
    write_ppm(tmp_path / "b.ppm", image)
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def test_ppm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "img.ppm"
    pixels = bytes(range(2 * 1 * 3))
    # a comment may also follow a number directly, as netpbm allows
    for header in (b"P6\n# a comment\n2 1\n# another\n255\n", b"P6 2#after a number\n 1\t255 "):
        path.write_bytes(header + pixels)
        image = read_ppm(path)
        assert image.shape == (1, 2, 3)
        assert np.allclose(image * 255.0, np.frombuffer(pixels, np.uint8).reshape(1, 2, 3))


def test_ppm_rejects_bad_inputs(tmp_path):
    for shape in ((4, 4), (4, 4, 4)):
        with pytest.raises(ValueError, match=r"^image must have shape \(H, W, 3\)$"):
            write_ppm(tmp_path / "x.ppm", np.zeros(shape))
    for bad in (1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^image values must lie in \[0, 1\]$"):
            write_ppm(tmp_path / "x.ppm", np.full((2, 2, 3), bad))
    assert not (tmp_path / "x.ppm").exists()
    bad_magic = tmp_path / "bad.ppm"
    bad_magic.write_bytes(b"P3\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        read_ppm(bad_magic)
    wide = tmp_path / "wide.ppm"
    wide.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(FormatError):
        read_ppm(wide)
    short = tmp_path / "short.ppm"
    short.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        read_ppm(short)
    # int() reads 0_1 as 1, +1 as 1 and b"1" * 5000 not at all; a header number is ASCII digits
    for header in (b"P6\n0_1 1\n255\n", b"P6\n+1 1\n255\n", b"P6\n1 1\n255#\n",
                   b"P6\n" + b"1" * 5000 + b" 1\n255\n"):
        odd = tmp_path / "odd.ppm"
        odd.write_bytes(header + b"\x00\x00\x00")
        with pytest.raises(FormatError):
            read_ppm(odd)
    for header in (b"P6\n0 5\n255\n", b"P6\n5 0\n255\n", b"P6\n0 0\n255\n"):
        empty = tmp_path / "empty.ppm"
        empty.write_bytes(header)
        with pytest.raises(FormatError, match="has no pixels"):
            read_ppm(empty)


def test_depth_raster_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(2)
    depth = np.exp(rng.normal(size=(4, 6)))
    path = tmp_path / "depth.txt"
    write_depth_raster(path, depth)
    assert np.array_equal(read_depth_raster(path), depth)


@pytest.mark.parametrize("kind", ["repeated", "distinct"])
def test_depth_raster_bytes_match_per_pixel_repr(tmp_path, kind):
    rng = np.random.default_rng(3)
    if kind == "repeated":
        levels = np.array([0.0, -0.0, 1.5, np.inf, np.nan, 1e-300, 7.25e12])
        depth = rng.choice(np.concatenate([levels, rng.uniform(1, 10, 5)]), (9, 13))
    else:
        depth = np.exp(rng.normal(size=(9, 13)))
        assert np.unique(depth).size == depth.size
    path = tmp_path / "depth.txt"
    write_depth_raster(path, depth)
    rows = [" ".join(repr(float(v)) for v in row) for row in depth]
    expected = "\n".join([f"DEPTH {depth.shape[0]} {depth.shape[1]}", *rows]) + "\n"
    assert path.read_bytes() == expected.encode()


def test_depth_raster_writer_rejects_other_ranks(tmp_path):
    for depth in (np.ones(4), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match="2-D"):
            write_depth_raster(tmp_path / "depth.txt", depth)
    assert not (tmp_path / "depth.txt").exists()


def test_depth_raster_rejects_malformed_files(tmp_path):
    path = tmp_path / "depth.txt"
    for text in (
        "RASTER 2 2\n1 2\n3 4\n",
        "DEPTH 3 2\n1 2\n3 4\n",
        "DEPTH 1 2\n1 oops\n",
        "DEPTH 2 2\n1 2\n3 4 5\n",  # one row longer than the header says
        "DEPTH 1 2\n1 2\n3 4\n",  # more rows than the header says
        "DEPTH 2 2\n1 2\n\n3 4\n",  # a blank line among the rows
        "DEPTH 1 2\n1 2 # 3\n",
        "DEPTH 1 2 3\n1 2\n",  # a token after the two header numbers
        "DEPTH 0 0\n",
        "DEPTH 1 0\n\n",
        "DEPTH 1 2\n\n",  # the one row is blank
        "DEPTH 0_1 2\n1 2\n",  # int() reads 0_1 as 1
        "DEPTH \u0661 2\n1 2\n",  # and an Arabic-Indic one as 1
    ):
        path.write_text(text)
        with pytest.raises(FormatError):
            read_depth_raster(path)


def test_depth_raster_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "depth.txt"
    path.write_text("DEPTH 1 2\n1.5 2\n\n  \n")
    assert np.array_equal(read_depth_raster(path), [[1.5, 2.0]])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.0", "-0.0", "-1.5"])
def test_depth_raster_rejects_non_finite_or_non_positive_depths(tmp_path, bad):
    path = tmp_path / "depth.txt"
    path.write_text(f"DEPTH 2 2\n1.0 2.0\n3.0 {bad}\n")
    with pytest.raises(FormatError):
        read_depth_raster(path)


def test_manifest_round_trip(tmp_path):
    rows = [("img_0000.ppm", "depth_0000.txt", 7), ("img_0001.ppm", "depth_0001.txt", 8)]
    path = tmp_path / "manifest.txt"
    write_manifest(path, rows)
    assert read_manifest(path) == rows
    text = path.read_text().splitlines()
    path.write_text("\n".join([text[0], "", text[1], "  ", text[2], ""]) + "\n")
    assert read_manifest(path) == rows  # blank lines are skipped


def test_manifest_rejects_malformed_files(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("MANIFEST v2\n")
    with pytest.raises(FormatError):
        read_manifest(path)
    for line in ("img.ppm depth.txt", "img.ppm depth.txt x", "img.ppm depth.txt 1_0",
                 "img.ppm depth.txt \u0661"):
        path.write_text(f"MANIFEST v1\n{line}\n")
        with pytest.raises(FormatError):
            read_manifest(path)


def _sample_checkpoint():
    rng = np.random.default_rng(3)
    config = config_from_mapping(
        {"hidden_dims": "5,3", "patch_dim": "4", "epochs": "7", "texture": "flat"}
    )
    model = unary.build_model(config.layer_dims(), seed=11)
    dim = config.layer_dims()[0]
    return Checkpoint(
        config=config,
        model=model,
        beta=rng.uniform(0.0, 2.0, size=3),
        gammas=np.array([2.0, 2.0, 2.0]),
        input_mean=rng.normal(size=dim),
        input_std=rng.uniform(0.5, 2.0, size=dim),
    )


def test_checkpoint_round_trip_is_lossless(tmp_path):
    ckpt = _sample_checkpoint()
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, ckpt)
    loaded = read_checkpoint(path)
    assert loaded.config == ckpt.config
    for got, want in zip(loaded.model.weights, ckpt.model.weights):
        assert np.array_equal(got, want)
    for got, want in zip(loaded.model.biases, ckpt.model.biases):
        assert np.array_equal(got, want)
    for name in ("beta", "gammas", "input_mean", "input_std"):
        assert np.array_equal(getattr(loaded, name), getattr(ckpt, name))


def test_checkpoint_round_trip_keeps_extreme_values_bit_for_bit(tmp_path):
    ckpt = _sample_checkpoint()
    extremes = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    ckpt.model.weights[0].flat[: extremes.size] = extremes
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, ckpt)
    loaded = read_checkpoint(path).model.weights[0].flat[: extremes.size]
    assert loaded.tobytes() == extremes.tobytes()


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    write_checkpoint(first, _sample_checkpoint())
    write_checkpoint(second, read_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("write", [
    lambda path: write_ppm(path, np.zeros((2, 3, 3))),
    lambda path: write_depth_raster(path, np.ones((2, 3))),
    lambda path: write_manifest(path, [("img.ppm", "depth.txt", 4)]),
    lambda path: write_checkpoint(path, _sample_checkpoint()),
    lambda path: write_table(path, ["a", "b"], [[1, 0.5]]),
], ids=["ppm", "depth-raster", "manifest", "checkpoint", "table"])
def test_a_write_failing_at_replace_leaves_the_target_whole(tmp_path, monkeypatch, write):
    target = tmp_path / "target"
    target.write_bytes(b"old bytes\n")

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="cannot replace"):
        write(target)
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["target"]


def test_a_failed_write_names_the_target_not_the_temporary_file(tmp_path):
    # os.replace reports both paths, the temporary one first
    target = tmp_path / "run"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        write_depth_raster(target, np.ones((2, 3)))
    assert str(caught.value) == f"[Errno {errno.EISDIR}] Is a directory: '{target}'"
    assert sorted(os.listdir(tmp_path)) == ["run"] and os.listdir(target) == []
    with pytest.raises(FileNotFoundError, match="'" + re.escape(str(tmp_path / "no" / "x.txt"))):
        write_depth_raster(tmp_path / "no" / "x.txt", np.ones((2, 3)))


def test_checkpoint_rejects_malformed_files(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("NOT A CHECKPOINT\n")
    with pytest.raises(FormatError):
        read_checkpoint(path)
    write_checkpoint(path, _sample_checkpoint())
    lines = path.read_text().splitlines()
    start = lines.index("TENSOR beta 3")
    path.write_text("\n".join(lines[:start] + lines[start + 2 :]) + "\n")
    with pytest.raises(FormatError):
        read_checkpoint(path)


@pytest.mark.parametrize(
    "body", ["1_0 1.0 1.0", "\u0661 1.0 1.0", "1.0 1.0\n1.0", "\n1.0 1.0 1.0"],
    ids=["underscore", "arabic-indic-digit", "reflowed", "blank-line"],
)
def test_checkpoint_tensor_rows_take_the_depth_raster_grammar(tmp_path, body):
    # float() reads 1_0 as 10 and an Arabic-Indic one as 1; a raster row never did
    path = tmp_path / "depth.txt"
    path.write_text(f"DEPTH 1 3\n{body}\n")
    with pytest.raises(FormatError):
        read_depth_raster(path)
    write_checkpoint(path, _sample_checkpoint())
    lines = path.read_text().splitlines()
    start = lines.index("TENSOR beta 3")
    path.write_text("\n".join([*lines[: start + 1], body, *lines[start + 2 :]]) + "\n")
    with pytest.raises(FormatError, match="malformed checkpoint"):
        read_checkpoint(path)


def test_checkpoint_with_retired_c1_cap_key_still_loads(tmp_path):
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, _sample_checkpoint())
    text = path.read_text()
    assert "c1_cap" not in text
    path.write_text(text.replace("CONFIG out_dir", "CONFIG c1_cap 0.0\nCONFIG out_dir"))
    assert read_checkpoint(path).config == _sample_checkpoint().config


@pytest.mark.parametrize(
    "gammas", [[2.0, 2.0, 3.0], [2.0, 2.0], [[2.0, 2.0, 2.0]]], ids=["value", "short", "2-d"]
)
def test_checkpoint_rejects_gammas_differing_from_config(tmp_path, gammas):
    ckpt = _sample_checkpoint()
    ckpt.gammas = np.array(gammas)
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, ckpt)
    with pytest.raises(FormatError, match="gammas"):
        read_checkpoint(path)


# _sample_checkpoint's configuration: input width 48, hidden widths 5,3, gammas 2.0
@pytest.mark.parametrize("field, value, message", [
    ("model", unary.build_model((48, 5, 4, 1), seed=11), "widths"),
    ("beta", np.array([1.0, -0.5, 1.0]), "beta"),
    ("beta", np.ones(2), "beta"),
    ("input_std", np.concatenate([np.ones(47), [0.0]]), "input_std"),
    ("gammas", np.array([2.0, 2.0, 3.0]), "gammas"),
], ids=["hidden-width", "negative-beta", "two-betas", "zero-input-std", "gammas"])
def test_checkpoint_refuses_what_the_reader_refuses(field, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(_sample_checkpoint(), **{field: value})


FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: value})


def test_config_rejects_negative_compactness():
    with pytest.raises(ConfigError, match="compactness"):
        config_from_mapping({"compactness": "-0.1"})


def test_config_reads_undecoded_command_line_bytes_as_utf8():
    # what an ASCII locale makes of the arguments b"r\xc3\xa9sum\xc3\xa9" and b"r\xe9sum\xe9"
    assert config_from_mapping({"out_dir": "r\udcc3\udca9sum\udcc3\udca9"}).out_dir == "résumé"
    with pytest.raises(ConfigError, match="out_dir"):
        config_from_mapping({"out_dir": "r\udce9sum\udce9"})


def test_checkpoint_rejects_a_non_finite_config_value(tmp_path):
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, _sample_checkpoint())
    path.write_text(path.read_text().replace("CONFIG compactness 0.2", "CONFIG compactness nan"))
    with pytest.raises(FormatError, match="compactness"):
        read_checkpoint(path)


def test_checkpoint_config_defaults_round_trip(tmp_path):
    config = RunConfig()
    mapping = config.to_mapping()
    assert config_from_mapping(mapping) == config
    replayed = config_from_mapping({k: v for k, v in mapping.items()})
    assert dataclasses.asdict(replayed) == dataclasses.asdict(config)


def test_history_round_trip(tmp_path):
    history = [
        EpochStats(epoch=0, lr=1e-4, mean_nll=3.25),
        EpochStats(epoch=1, lr=6e-5, mean_nll=2.125),
    ]
    path = tmp_path / "history.csv"
    write_history(path, history)
    assert read_history(path) == history
    assert path.read_bytes().split(b"\n")[:2] == [b"epoch,lr,mean_nll", b"0,0.0001,3.25"]


def test_history_reads_files_with_crlf_line_ends(tmp_path):
    # the CSV writer ended lines with \r\n before it switched to \n
    path = tmp_path / "history.csv"
    path.write_bytes(b"epoch,lr,mean_nll\r\n0,0.0001,3.25\r\n1,6e-05,2.125\r\n")
    assert read_history(path) == [EpochStats(epoch=0, lr=1e-4, mean_nll=3.25),
                                  EpochStats(epoch=1, lr=6e-5, mean_nll=2.125)]


def test_history_rejects_other_csv(tmp_path):
    path = tmp_path / "other.csv"
    for text in ("a,b\n1,2\n", "epoch,lr,mean_nll\n1_0,0.1,2.0\n", "epoch,lr,mean_nll\n1,nan,2.0\n",
                 "epoch,lr,mean_nll\n1,0.1\n"):
        path.write_text(text)
        with pytest.raises(FormatError):
            read_history(path)


def _small_files(root):
    """A PPM, a depth raster and a manifest, each small enough that edits often hit its header."""
    rng = np.random.default_rng(4)
    write_ppm(root / "img.ppm", rng.integers(0, 256, size=(3, 4, 3)) / 255.0)
    write_depth_raster(root / "depth.txt", np.exp(rng.normal(size=(3, 4))))
    write_manifest(root / "manifest.txt", [(f"img_{i}.ppm", f"depth_{i}.txt", i) for i in range(3)])
    return {read_ppm: root / "img.ppm", read_depth_raster: root / "depth.txt",
            read_manifest: root / "manifest.txt"}


def test_corrupted_files_load_or_raise_format_error(tmp_path):
    # any other exception, or a warning (the suite makes it an error), fails the test
    rng = np.random.default_rng(8)
    for reader, path in _small_files(tmp_path).items():
        blob = path.read_bytes()
        for edited in [blob[:9] + b"\xff" + blob[10:], *corruptions(blob, rng, 400)]:
            path.write_bytes(edited)
            try:
                reader(path)
            except FormatError as exc:
                assert str(path) in str(exc)
