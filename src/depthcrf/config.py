"""Run configuration: one flat key-value namespace for the whole pipeline.

A run is described by a small set of typed keys covering scene synthesis,
graph construction, the regressor architecture and the training loop; a
stage's record (``SceneSpec``, ``GraphConfig``, ``TrainConfig``) names the
keys it reads and states their defaults.  Values arrive as strings (from a
config file or ``--set key=value`` overrides) and are coerced by key type;
unknown keys are rejected so a typo cannot silently fall back to a default.
A text value holding a line break is rejected too: every key is written
back as one checkpoint line.

Config files are UTF-8 text: one ``key = value`` per line, blank lines
and ``#`` comments ignored; a file that is not text, or that sets a key on
two lines, is a ``ConfigError`` (repeated ``--set`` overrides: the last wins).

Numbers (run keys, file headers and seeds, numeric flags) are read by
``parse_int`` and ``parse_float``: ASCII digits, sign, point and exponent, as
``np.loadtxt`` reads file rows, never ``1_0`` or non-ASCII digits.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

from .graph import GraphConfig
from .synth import SceneSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """A configuration key, value or combination is invalid."""


def parse_int(text: str) -> int:
    """An optionally signed run of ASCII digits; ValueError otherwise."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A finite ASCII decimal, exponent allowed; ValueError otherwise."""
    decimal = re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", text)
    if not decimal or not math.isfinite(value := float(text)):
        raise ValueError(f"not a finite decimal number: {text!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Every key in checkpoint order; all but ``count``, ``hidden_dims`` and
    ``out_dir`` take their defaults from the record of the stage reading them."""

    # scene synthesis
    height: int = SceneSpec.height
    width: int = SceneSpec.width
    num_planes: int = SceneSpec.num_planes
    depth_min: float = SceneSpec.depth_min
    depth_max: float = SceneSpec.depth_max
    texture: str = SceneSpec.texture
    noise_sigma: float = SceneSpec.noise_sigma
    count: int = 10
    seed: int = SceneSpec.seed
    # superpixel graph
    target_superpixels: int = GraphConfig.target_superpixels
    compactness: float = GraphConfig.compactness
    box_size: int = GraphConfig.box_size
    patch_dim: int = GraphConfig.patch_dim
    gamma_color: float = GraphConfig.gamma_color
    gamma_hist: float = GraphConfig.gamma_hist
    gamma_lbp: float = GraphConfig.gamma_lbp
    use_centroid_depth: bool = GraphConfig.use_centroid_depth
    # regressor architecture (hidden layer widths; input/output are implied)
    hidden_dims: tuple = (32, 16)
    # training
    momentum: float = TrainConfig.momentum
    lambda1: float = TrainConfig.lambda1
    lambda2: float = TrainConfig.lambda2
    lr0: float = TrainConfig.lr0
    lr_decay: float = TrainConfig.lr_decay
    lr_decay_every: int = TrainConfig.lr_decay_every
    epochs: int = TrainConfig.epochs
    dropout_keep: float = TrainConfig.dropout_keep
    train_seed: int = TrainConfig.train_seed
    beta_init: float = TrainConfig.beta_init
    # default output directory (commands may override via --out)
    out_dir: str = "out"

    def _record(self, record):
        """``record`` built from the keys named like its fields."""
        return record(**{f.name: getattr(self, f.name) for f in dataclasses.fields(record)})

    def scene_spec(self) -> SceneSpec:
        return self._record(SceneSpec)

    def graph_config(self) -> GraphConfig:
        return self._record(GraphConfig)

    def train_config(self) -> TrainConfig:
        return self._record(TrainConfig)

    def layer_dims(self) -> tuple:
        input_dim = 3 * self.patch_dim * self.patch_dim
        return (input_dim, *self.hidden_dims, 1)

    def validate(self) -> "RunConfig":
        """Cross-check the keys by building every downstream config."""
        try:
            self.scene_spec()
            self.graph_config()
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc))
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError("hidden_dims must be positive")
        if self.count < 1:
            raise ConfigError("count must be at least 1")
        return self

    def to_mapping(self) -> dict:
        """Render every key as a string that parses back identically."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out[field.name] = repr(value) if isinstance(value, float) else str(value)
        return out


def _parse_str(text: str) -> str:
    """Free text on one line: a checkpoint writes each key as one line, in
    UTF-8.  Under a non-UTF-8 locale Python hands over command-line bytes it
    could not decode as surrogates; they are read as UTF-8 or rejected."""
    text = text.strip().encode("utf-8", "surrogateescape").decode("utf-8")
    if len(text.splitlines()) > 1:
        raise ValueError(f"a line break inside {text!r}")
    return text


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# keyed by annotation text (under __future__ annotations a field's type is a
# string); a parser raises ValueError or KeyError on a bad value
_PARSERS = {"bool": lambda text: _BOOLS[text.strip().lower()],
            "tuple": lambda text: tuple(parse_int(t) for t in text.replace(",", " ").split()),
            "int": parse_int, "float": parse_float, "str": _parse_str}


def config_from_mapping(mapping, base: RunConfig | None = None) -> RunConfig:
    """Apply string-valued overrides on top of ``base`` (or the defaults)."""
    base = base if base is not None else RunConfig()
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    updates = {}
    for key, raw in mapping.items():
        if key not in fields:
            raise ConfigError(f"unknown configuration key: {key!r}")
        try:
            updates[key] = _PARSERS[fields[key].type](str(raw))
        except (ValueError, KeyError):
            raise ConfigError(f"bad value for {key}: {raw!r}")
    return dataclasses.replace(base, **updates).validate()


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into an (unvalidated) override mapping; a key
    set on two lines is a ConfigError naming both."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason} at byte {exc.start})")
    mapping, seen = {}, {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        mapping[key], seen[key] = value, lineno
    return mapping
