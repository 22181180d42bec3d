"""File-format round trips: PPM images, depth rasters, manifests, checkpoints."""

import dataclasses

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
)
from depthcrf.training import EpochStats


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
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + pixels)
    image = read_ppm(path)
    assert image.shape == (1, 2, 3)
    assert np.allclose(image * 255.0, np.frombuffer(pixels, np.uint8).reshape(1, 2, 3))


def test_ppm_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.full((2, 2, 3), 1.5))
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
        "DEPTH 0 0\n",
        "DEPTH 1 0\n\n",
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


def test_manifest_rejects_malformed_files(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("MANIFEST v2\n")
    with pytest.raises(FormatError):
        read_manifest(path)
    for line in ("img.ppm depth.txt", "img.ppm depth.txt x"):
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


FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: value})


def test_config_rejects_negative_compactness():
    with pytest.raises(ConfigError, match="compactness"):
        config_from_mapping({"compactness": "-0.1"})


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
    assert path.read_text().splitlines()[0] == "epoch,lr,mean_nll"


def test_history_rejects_other_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError):
        read_history(path)
