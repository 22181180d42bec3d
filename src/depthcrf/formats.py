"""On-disk formats: images, depth rasters, manifests, checkpoints, history.

Everything is deliberately plain so files diff cleanly and round-trip
exactly:

* images are 8-bit binary PPM (P6), values mapped linearly to [0, 1];
* depth rasters are text: a ``DEPTH rows cols`` header, then one line per
  row of decimal meters (shortest representation that parses back to the
  identical float); the reader accepts only finite, positive depths, in
  exactly the header's rows and columns, and blank lines after them;
* dataset manifests are text: a ``MANIFEST v1`` header, then one line per
  sample with the image path, the depth path and the sample's seed, paths
  relative to the manifest;
* checkpoints are text: a ``NFCKPT v1`` header, the run configuration as
  key-value lines, the activation tags, then ``TENSOR name dims...``
  sections in row-major order covering the regressor, the coupling
  coefficients, the similarity bandwidths (which must equal the configured
  gammas) and the input standardization statistics; the reader rejects
  tensors that disagree with the configuration or with each other;
* training history is CSV with columns epoch, lr, mean_nll.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import unary
from .config import ConfigError, RunConfig, config_from_mapping
from .training import EpochStats

PPM_MAGIC = b"P6"
DEPTH_MAGIC = "DEPTH"
MANIFEST_MAGIC = "MANIFEST v1"
CHECKPOINT_MAGIC = "NFCKPT v1"


class FormatError(ValueError):
    """A file does not parse as the format it is supposed to be."""


def _fmt(value: float) -> str:
    return repr(float(value))


def write_ppm(path, image) -> None:
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must have shape (H, W, 3)")
    if np.any(image < 0.0) or np.any(image > 1.0):
        raise ValueError("image values must lie in [0, 1]")
    height, width = image.shape[:2]
    data = np.rint(image * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if not blob.startswith(PPM_MAGIC):
        raise FormatError(f"{path}: not a binary PPM file")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed; pixel data starts after the maxval token's
    # single trailing whitespace byte
    tokens, pos = [], 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise FormatError(f"{path}: truncated PPM header")
        ch = blob[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    pos += 1
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: malformed PPM header")
    if maxval != 255:
        raise FormatError(f"{path}: expected 8-bit PPM, maxval {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: a {width}x{height} PPM has no pixels")
    expected = width * height * 3
    data = blob[pos : pos + expected]
    if len(data) != expected:
        raise FormatError(f"{path}: truncated PPM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(float) / 255.0


def write_depth_raster(path, depth) -> None:
    depth = np.asarray(depth, dtype=float)
    if depth.ndim != 2:
        raise ValueError("depth raster must be 2-D")
    rows, cols = depth.shape
    # a predicted raster repeats one value per superpixel, so format each
    # distinct bit pattern once; bits, not values, keep -0.0 apart from 0.0
    bits, inverse = np.unique(
        np.ascontiguousarray(depth).view(np.uint64), return_inverse=True
    )
    text = np.array([_fmt(v) for v in bits.view(float)], dtype=object)
    lines = [f"{DEPTH_MAGIC} {rows} {cols}"]
    lines.extend(" ".join(row) for row in text[inverse].reshape(rows, cols).tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_depth_raster(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(DEPTH_MAGIC + " "):
        raise FormatError(f"{path}: not a depth raster file")
    body = []
    try:
        rows, cols = (int(t) for t in lines[0].split()[1:3])
        body = lines[1 : rows + 1]
        # only blank lines may follow the rows; loadtxt skips one among them,
        # which leaves too few rows
        fits = min(rows, cols) > 0 and not any(line.strip() for line in lines[rows + 1 :])
        arr = np.loadtxt(body, comments=None, ndmin=2) if fits else None
    except ValueError:
        # loadtxt also rejects rows of unequal width, which is a shape mismatch
        if len({len(line.split()) for line in body}) < 2:
            raise FormatError(f"{path}: malformed depth raster")
        arr = None
    if arr is None or arr.shape != (rows, cols):
        raise FormatError(f"{path}: depth raster shape mismatch")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise FormatError(f"{path}: depth values must be finite and positive")
    return arr


def write_manifest(path, rows) -> None:
    """rows: iterable of (image_path, depth_path, seed), paths relative."""
    lines = [MANIFEST_MAGIC]
    lines.extend(f"{img} {dep} {int(seed)}" for img, dep, seed in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != MANIFEST_MAGIC:
        raise FormatError(f"{path}: not a dataset manifest")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            image, depth, seed = line.split()
            rows.append((image, depth, int(seed)))
        except ValueError:
            raise FormatError(f"{path}: malformed manifest line: {line!r}")
    return rows


@dataclass
class Checkpoint:
    """A trained pipeline plus the configuration that produced it."""

    config: RunConfig
    model: unary.UnaryModel
    beta: np.ndarray
    gammas: np.ndarray
    input_mean: np.ndarray
    input_std: np.ndarray


def _tensor_lines(name, arr):
    arr = np.asarray(arr, dtype=float)
    dims = " ".join(str(d) for d in arr.shape)
    yield f"TENSOR {name} {dims}"
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr[None, :]
    for row in rows:
        yield " ".join(_fmt(v) for v in row)


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    lines = [CHECKPOINT_MAGIC]
    for key, value in ckpt.config.to_mapping().items():
        lines.append(f"CONFIG {key} {value}")
    lines.append("ACTIVATIONS " + " ".join(ckpt.model.activations))
    for i, (w, b) in enumerate(zip(ckpt.model.weights, ckpt.model.biases)):
        lines.extend(_tensor_lines(f"weight{i}", w))
        lines.extend(_tensor_lines(f"bias{i}", b))
    lines.extend(_tensor_lines("beta", ckpt.beta))
    lines.extend(_tensor_lines("gammas", ckpt.gammas))
    lines.extend(_tensor_lines("input_mean", ckpt.input_mean))
    lines.extend(_tensor_lines("input_std", ckpt.input_std))
    Path(path).write_text("\n".join(lines) + "\n")


def read_checkpoint(path) -> Checkpoint:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    mapping, tensors, activations = {}, {}, None
    i = 1
    try:
        while i < len(lines):
            line = lines[i]
            if line.startswith("CONFIG "):
                _, key, value = line.split(" ", 2)
                if key != "c1_cap":  # a retired key that older checkpoints carry
                    mapping[key] = value
                i += 1
            elif line.startswith("ACTIVATIONS "):
                activations = tuple(line.split()[1:])
                i += 1
            elif line.startswith("TENSOR "):
                parts = line.split()
                name = parts[1]
                shape = tuple(int(d) for d in parts[2:])
                count = int(np.prod(shape)) if shape else 1
                tokens = []
                i += 1
                while len(tokens) < count:
                    tokens.extend(lines[i].split())
                    i += 1
                tensors[name] = np.array(tokens, dtype=float).reshape(shape)
            elif not line.strip():
                i += 1
            else:
                raise FormatError(f"{path}: unexpected line {i + 1}: {line!r}")
    except (IndexError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: malformed checkpoint: {exc}")
    try:
        config = config_from_mapping(mapping)
    except ConfigError as exc:
        raise FormatError(f"{path}: bad configuration: {exc}")
    num_layers = sum(1 for name in tensors if name.startswith("weight"))
    try:
        model = unary.UnaryModel(
            weights=[tensors[f"weight{i}"] for i in range(num_layers)],
            biases=[tensors[f"bias{i}"] for i in range(num_layers)],
        )
        beta, gammas, mean, std = (
            tensors[name] for name in ("beta", "gammas", "input_mean", "input_std")
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or malformed tensor: {exc}")
    if (model.layer_dims, activations) != (config.layer_dims(), model.activations):
        raise FormatError(
            f"{path}: regressor widths {model.layer_dims} with activations {activations} "
            f"differ from {config.layer_dims()} with {model.activations}"
        )
    if beta.shape != (3,) or not np.all(np.isfinite(beta) & (beta >= 0.0)):
        raise FormatError(f"{path}: beta {beta.tolist()} is not 3 finite values >= 0")
    dim = (model.input_dim,)
    if mean.shape != dim or std.shape != dim or not np.all(
        np.isfinite(mean) & np.isfinite(std) & (std > 0.0)
    ):
        raise FormatError(f"{path}: input_mean/input_std are not {dim} finite, std > 0")
    # prediction takes its gammas from the configuration, so the tensor must agree
    configured = (config.gamma_color, config.gamma_hist, config.gamma_lbp)
    if gammas.shape != (3,) or not np.array_equal(gammas, configured):
        raise FormatError(
            f"{path}: gammas tensor {gammas.tolist()} differs from "
            f"the configured {list(configured)}"
        )
    return Checkpoint(config, model, beta, gammas, input_mean=mean, input_std=std)


def write_history(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "mean_nll"])
        for stats in history:
            writer.writerow([stats.epoch, _fmt(stats.lr), _fmt(stats.mean_nll)])


def read_history(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["epoch", "lr", "mean_nll"]:
            raise FormatError(f"{path}: not a training history file")
        return [
            EpochStats(epoch=int(row[0]), lr=float(row[1]), mean_nll=float(row[2]))
            for row in reader
            if row
        ]
