"""On-disk formats: images, depth rasters, manifests, checkpoints, history.

Everything is deliberately plain so files diff cleanly and round-trip
exactly:

* images are 8-bit binary PPM (P6), values mapped linearly to [0, 1], with
  ``#`` comments allowed before any header number;
* depth rasters are text: a ``DEPTH rows cols`` header, then one line per
  row of decimal meters (shortest representation that parses back to the
  identical float); the reader accepts only those two header numbers,
  finite positive depths in exactly that shape, and blank lines after them;
* dataset manifests are text: a ``MANIFEST v1`` header, then one line per
  sample with the image path, the depth path and the sample's seed, paths
  relative to the manifest;
* checkpoints are text: a ``NFCKPT v1`` header, the run configuration as
  key-value lines, the activation tags, then ``TENSOR name dims...``
  sections covering the regressor, the coupling coefficients, the
  similarity bandwidths (which must equal the configured gammas) and the
  input standardization statistics; a section holds one line per row of
  its last axis, in row-major order, written and read like the rows of a
  depth raster; the reader rejects a repeated key, activation line or
  tensor, a tensor name it does not know, and tensors that are not finite
  or that disagree with the configuration or with each other;
* training history is CSV with columns epoch, lr, mean_nll, written by
  ``write_table`` like the ``eval --out`` and ``sweep-superpixels`` CSVs,
  lines ending in ``\\n`` as in every other text file here (``read_history``
  also reads the ``\\r\\n`` lines of older files).

Header numbers and seeds are read by ``config.parse_int``/``parse_float``,
section rows by ``np.loadtxt``: the same ASCII decimals.  Every text file is
written and read as UTF-8 whatever the locale; text that does not decode is
a ``FormatError``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import unary
from .config import ConfigError, RunConfig, config_from_mapping, parse_float, parse_int
from .graph import NUM_CHANNELS, SceneSample
from .training import EpochStats

# magic, then width, height and maxval, each after whitespace or '#' comments
# running to the end of their line; one whitespace byte ends the header
PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+([0-9]+)" * 3 + rb"\s")
DEPTH_MAGIC = "DEPTH"
MANIFEST_MAGIC = "MANIFEST v1"
CHECKPOINT_MAGIC = "NFCKPT v1"


class FormatError(ValueError):
    """A file does not parse as the format it is supposed to be."""


def _fmt(value: float) -> str:
    return repr(float(value))


def _section(header: str, arr) -> list[str]:
    """``header`` and the shape of ``arr`` on one line, then one line per row
    of its last axis, in row-major order."""
    arr = np.ascontiguousarray(arr, dtype=float)
    # a predicted raster repeats one value per superpixel, so format each
    # distinct bit pattern once; bits, not values, keep -0.0 apart from 0.0
    bits, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    text = np.array([_fmt(v) for v in bits.view(float)], dtype=object)
    rows = text[inverse].reshape(-1, arr.shape[-1]).tolist()
    return [" ".join([header, *map(str, arr.shape)]), *map(" ".join, rows)]


def _text_lines(path) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason} at byte {exc.start})")


def utf8_path(text: str) -> str:
    """The file name whose bytes are ``text`` in UTF-8, as files record
    names, whatever the file-system encoding of the locale."""
    return os.fsdecode(text.encode("utf-8"))


def _write_whole(path, data) -> None:
    """Write text or bytes to a temporary file beside ``path``, then move it
    over ``path``, so the target holds its old contents or all of the new.
    On failure the temporary file is removed, and a failed system call is
    reported against ``path``, the file the caller asked for."""
    path = Path(path)
    temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        temp.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _write_lines(path, lines) -> None:
    """A text file of ``lines``, each ending in ``\\n``."""
    _write_whole(path, "\n".join(lines) + "\n")


def write_ppm(path, image) -> None:
    image = SceneSample(image).image  # its ValueError for a bad shape or value
    height, width = image.shape[:2]
    data = np.rint(image * 255.0).astype(np.uint8)
    _write_whole(path, b"P6\n%d %d\n255\n" % (width, height) + data.tobytes())


def read_ppm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    header = PPM_HEADER.match(blob)
    if header is None:
        raise FormatError(f"{path}: not a binary PPM file with a well-formed header")
    try:
        width, height, maxval = (int(t) for t in header.groups())
    except ValueError:  # more digits than int() converts
        raise FormatError(f"{path}: a PPM header number is too long")
    if maxval != 255:
        raise FormatError(f"{path}: expected 8-bit PPM, maxval {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: a {width}x{height} PPM has no pixels")
    expected = width * height * 3
    data = blob[header.end() : header.end() + expected]
    if len(data) != expected:
        raise FormatError(f"{path}: truncated PPM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(float) / 255.0


def write_depth_raster(path, depth) -> None:
    depth = np.asarray(depth, dtype=float)
    if depth.ndim != 2:
        raise ValueError("depth raster must be 2-D")
    _write_lines(path, _section(DEPTH_MAGIC, depth))


def _decimal_rows(body, rows: int, cols: int) -> np.ndarray | None:
    """``body`` as a (rows, cols) array, None if its lines (a blank one holds no
    values) do not fit that shape; ValueError on a token that is no decimal."""
    if min(rows, cols) < 1 or len(body) != rows or not all(line.strip() for line in body):
        return None
    try:
        arr = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        # loadtxt also rejects rows of unequal width, which is a shape mismatch
        if len({len(line.split()) for line in body}) > 1:
            return None
        raise
    return arr if arr.shape == (rows, cols) else None


def read_depth_raster(path) -> np.ndarray:
    lines = _text_lines(path)
    if not lines or not lines[0].startswith(DEPTH_MAGIC + " "):
        raise FormatError(f"{path}: not a depth raster file")
    try:
        rows, cols = (parse_int(t) for t in lines[0].split()[1:])
        # only blank lines may follow the rows
        fits = not any(line.strip() for line in lines[rows + 1 :])
        arr = _decimal_rows(lines[1 : rows + 1], rows, cols) if fits else None
    except ValueError:
        raise FormatError(f"{path}: malformed depth raster")
    if arr is None:
        raise FormatError(f"{path}: depth raster shape mismatch")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise FormatError(f"{path}: depth values must be finite and positive")
    return arr


def write_manifest(path, rows) -> None:
    """rows: iterable of (image_path, depth_path, seed), paths relative."""
    lines = [MANIFEST_MAGIC]
    lines.extend(f"{img} {dep} {int(seed)}" for img, dep, seed in rows)
    _write_lines(path, lines)


def read_manifest(path):
    lines = _text_lines(path)
    if not lines or lines[0] != MANIFEST_MAGIC:
        raise FormatError(f"{path}: not a dataset manifest")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            image, depth, seed = line.split()
            rows.append((utf8_path(image), utf8_path(depth), parse_int(seed)))
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


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    lines = [CHECKPOINT_MAGIC]
    for key, value in ckpt.config.to_mapping().items():
        lines.append(f"CONFIG {key} {value}")
    lines.append("ACTIVATIONS " + " ".join(ckpt.model.activations))
    for i, (w, b) in enumerate(zip(ckpt.model.weights, ckpt.model.biases)):
        lines.extend(_section(f"TENSOR weight{i}", w))
        lines.extend(_section(f"TENSOR bias{i}", b))
    lines.extend(_section("TENSOR beta", ckpt.beta))
    lines.extend(_section("TENSOR gammas", ckpt.gammas))
    lines.extend(_section("TENSOR input_mean", ckpt.input_mean))
    lines.extend(_section("TENSOR input_std", ckpt.input_std))
    _write_lines(path, lines)


def read_checkpoint(path) -> Checkpoint:
    lines = _text_lines(path)
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    mapping, tensors, activations = {}, {}, None
    i = 1
    try:
        while i < len(lines):
            line, i = lines[i], i + 1
            if line.startswith("CONFIG "):
                _, key, value = line.split(" ", 2)
                if key in mapping:
                    raise ValueError(f"repeated CONFIG {key}")
                mapping[key] = value
            elif line.startswith("ACTIVATIONS "):
                if activations is not None:
                    raise ValueError("repeated ACTIVATIONS")
                activations = tuple(line.split()[1:])
            elif line.startswith("TENSOR "):
                _, name, *dims = line.split()
                if name in tensors:
                    raise ValueError(f"repeated TENSOR {name}")
                shape = tuple(parse_int(d) for d in dims)
                rows = math.prod(shape[:-1])  # as written: one line per row of the last axis
                arr = _decimal_rows(lines[i : i + rows], rows, shape[-1])
                if arr is None or not np.all(np.isfinite(arr)):
                    raise ValueError(
                        f"tensor {name} is not {rows} lines of {shape[-1]} finite values")
                tensors[name] = arr.reshape(shape)
                i += rows
            elif line.strip():
                raise FormatError(f"{path}: unexpected line {i}: {line!r}")
    except (IndexError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: malformed checkpoint: {exc}")
    mapping.pop("c1_cap", None)  # retired keys that older checkpoints carry
    if (seg_mode := mapping.pop("seg_mode", "slic")) != "slic":
        raise FormatError(f"{path}: seg_mode {seg_mode!r} is retired: segmentation is SLIC only")
    try:
        config = config_from_mapping(mapping)
    except ConfigError as exc:
        raise FormatError(f"{path}: bad configuration: {exc}")
    num_layers = sum(1 for name in tensors if name.startswith("weight"))
    layers = {f"{kind}{i}" for i in range(num_layers) for kind in ("weight", "bias")}
    if unknown := sorted(set(tensors) - layers - {"beta", "gammas", "input_mean", "input_std"}):
        raise FormatError(f"{path}: unknown tensors {unknown}")
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
    if beta.shape != (NUM_CHANNELS,) or np.any(beta < 0.0):
        raise FormatError(f"{path}: beta {beta.tolist()} is not {NUM_CHANNELS} values >= 0")
    dim = (model.input_dim,)
    if mean.shape != dim or std.shape != dim or np.any(std <= 0.0):
        raise FormatError(f"{path}: input_mean/input_std are not {dim} values, std > 0")
    # prediction takes its gammas from the configuration, so the tensor must agree
    configured = config.graph_config().gammas
    if gammas.shape != (NUM_CHANNELS,) or not np.array_equal(gammas, configured):
        raise FormatError(
            f"{path}: gammas tensor {gammas.tolist()} differs from "
            f"the configured {list(configured)}"
        )
    return Checkpoint(config, model, beta, gammas, input_mean=mean, input_std=std)


def write_table(path, header, rows) -> None:
    """A CSV file: the header, then one line per row, floats as ``_fmt`` writes them;
    no cell (numbers, mask names, fixed headers) holds a comma or a quote."""
    cells = ([_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows)
    _write_lines(path, map(",".join, [header, *cells]))


def write_history(path, history) -> None:  # EpochStats fields are in column order
    write_table(path, ["epoch", "lr", "mean_nll"], map(astuple, history))


def read_history(path):
    lines = _text_lines(path)
    if lines[:1] != ["epoch,lr,mean_nll"]:
        raise FormatError(f"{path}: not a training history file")
    try:
        return [EpochStats(epoch=parse_int(epoch), lr=parse_float(lr), mean_nll=parse_float(nll))
                for epoch, lr, nll in (line.split(",") for line in lines[1:] if line)]
    except ValueError as exc:
        raise FormatError(f"{path}: malformed history row: {exc}")
