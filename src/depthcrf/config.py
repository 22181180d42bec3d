"""Run configuration: one flat key-value namespace for the whole pipeline.

A run is described by a small set of typed keys covering scene synthesis,
graph construction, the regressor architecture and the training loop; a
stage's record (``SceneSpec``, ``GraphConfig``, ``TrainConfig``) names the
keys it reads, states their defaults and checks them.  ``RunConfig``'s
fields are those records' fields plus ``count``, ``hidden_dims`` and
``out_dir``, so a key is declared only in its stage's record, and a
``RunConfig`` builds all three records whenever it is built.  Values arrive
as strings (from a config file or ``--set`` overrides) and are coerced by
key type; unknown keys are rejected so a typo cannot silently fall back to a
default.  A text value holding a line break is rejected too: every key is
one checkpoint line.

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


class _RunConfigBase:
    """The methods of ``RunConfig``, whose fields ``make_dataclass`` adds below."""

    def __post_init__(self):
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


def _keys(record) -> list:
    """``record``'s fields as ``make_dataclass`` takes them: name, annotation text, default."""
    return [(f.name, f.type, f.default) for f in dataclasses.fields(record)]


# Every key in checkpoint order: each stage's record with its types and defaults,
# plus count (before the scene's seed), hidden_dims (hidden layer widths; input
# and output are implied) and out_dir (commands may override it via --out).
*_scene, _seed = _keys(SceneSpec)
RunConfig = dataclasses.make_dataclass(
    "RunConfig", [*_scene, ("count", "int", 10), _seed, *_keys(GraphConfig),
                  ("hidden_dims", "tuple", (32, 16)), *_keys(TrainConfig), ("out_dir", "str", "out")],
    bases=(_RunConfigBase,), frozen=True)
RunConfig.__module__ = __name__  # pickle finds the class by it; make_dataclass(module=) is 3.12+


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
    return dataclasses.replace(base, **updates)


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
