"""Run configuration: one flat key-value namespace for the whole pipeline.

A run is described by a small set of typed keys covering scene synthesis,
graph construction, the regressor architecture and the training loop.
Values arrive as strings (from a config file or ``--set key=value``
overrides) and are coerced by key type; unknown keys are rejected so a
typo cannot silently fall back to a default.

Config files are plain text: one ``key = value`` per line, blank lines
and ``#`` comments ignored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .graph import GraphConfig
from .synth import SceneSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """A configuration key, value or combination is invalid."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.replace(",", " ").split())


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline, with working defaults."""

    # scene synthesis
    height: int = 128
    width: int = 128
    num_planes: int = 4
    depth_min: float = 1.0
    depth_max: float = 10.0
    texture: str = "noise"
    noise_sigma: float = 0.02
    count: int = 10
    seed: int = 0
    # superpixel graph
    target_superpixels: int = 150
    compactness: float = 0.2
    seg_mode: str = "slic"
    box_size: int = 24
    patch_dim: int = 8
    gamma_color: float = 2.0
    gamma_hist: float = 2.0
    gamma_lbp: float = 2.0
    use_centroid_depth: bool = False
    # regressor architecture (hidden layer widths; input/output are implied)
    hidden_dims: tuple = (32, 16)
    # training
    momentum: float = 0.9
    lambda1: float = 5e-4
    lambda2: float = 5e-4
    lr0: float = 1e-4
    lr_decay: float = 0.6
    lr_decay_every: int = 20
    epochs: int = 60
    dropout_keep: float = 0.5
    train_seed: int = 0
    beta_init: float = 0.5
    # default output directory (commands may override via --out)
    out_dir: str = "out"

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(
            height=self.height,
            width=self.width,
            num_planes=self.num_planes,
            depth_range=(self.depth_min, self.depth_max),
            texture=self.texture,
            noise_sigma=self.noise_sigma,
            seed=self.seed,
        )

    def graph_config(self) -> GraphConfig:
        return GraphConfig(
            target_superpixels=self.target_superpixels,
            compactness=self.compactness,
            seg_mode=self.seg_mode,
            box_size=self.box_size,
            patch_dim=self.patch_dim,
            gammas=(self.gamma_color, self.gamma_hist, self.gamma_lbp),
            use_centroid_depth=self.use_centroid_depth,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            momentum=self.momentum,
            lambda1=self.lambda1,
            lambda2=self.lambda2,
            lr0=self.lr0,
            lr_decay=self.lr_decay,
            lr_decay_every=self.lr_decay_every,
            epochs=self.epochs,
            dropout_keep=self.dropout_keep,
            seed=self.train_seed,
            beta_init=self.beta_init,
        )

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
                out[field.name] = "true" if value else "false"
            elif isinstance(value, tuple):
                out[field.name] = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                out[field.name] = repr(value)
            else:
                out[field.name] = str(value)
        return out


# keyed by annotation text: under __future__ annotations a field's type is a string
_PARSERS = {"bool": _parse_bool, "tuple": _parse_int_tuple, "int": int, "float": float,
            "str": str.strip}


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
    """Read ``key = value`` lines into an (unvalidated) override mapping."""
    mapping = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping
