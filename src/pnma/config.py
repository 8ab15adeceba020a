"""Run configuration: a flat dataclass, a line-oriented config-file format,
and flag overrides (flags win over file values, file values over defaults).

A config file holds ``TrainConfig`` keys alone; file paths are flags, so any
other key, a path key among them, is unknown.  ``TrainConfig`` is the one
source of the model-shape defaults.  The phase-1 schedule's halving epochs
are a recipe constant, not a key.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .dataio import SCHEMES, read_text
from .errors import ConfigError
from .neighborhood import MODES

# the phase-1 learning rate halves after each of these epochs
LR_HALVING_EPOCHS = (50, 75)

# least value of each integer key that sizes the model or a run
_INT_MINIMA = {"seed": 0, "epochs": 0, "phase2_epochs": 0, "batch_size": 1, "n_layers": 1,
               "d_word": 1, "d_pred": 1, "d_hidden": 1, "k_neighbors": 1, "threads": 1}


@dataclass
class TrainConfig:
    """Hyperparameters for both training phases plus model dimensions.

    Defaults are the full-scale settings: 100 epochs at 1e-3 (halved after
    each of ``LR_HALVING_EPOCHS``), K=64 neighbors over a 15% memory, 20
    phase-2 epochs at a constant 4e-4.  A checkpoint echoes every field but
    ``threads``, which never changes a result.
    """

    epochs: int = 100
    base_lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    k_neighbors: int = 64
    memory_fraction: float = 0.15
    phase2_epochs: int = 20
    phase2_lr: float = 4e-4
    dropout_embed: float = 0.5
    dropout_layer: float = 0.1
    d_word: int = 64
    d_pred: int = 50
    d_hidden: int = 300
    n_layers: int = 4
    scheme: str = "bio-span"
    neighborhood_mode: str = "distinct"
    threads: int = 1

    def __post_init__(self) -> None:
        for name, least in _INT_MINIMA.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for f in dataclasses.fields(self):
            if f.type in ("float", float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be a finite number, got {getattr(self, f.name)}")
        for name in ("base_lr", "phase2_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ConfigError(f"memory_fraction must lie in (0, 1], got {self.memory_fraction}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.neighborhood_mode not in MODES:
            raise ConfigError(f"unknown neighborhood_mode {self.neighborhood_mode!r}")
        if not (0.0 <= self.dropout_embed < 1.0 and 0.0 <= self.dropout_layer < 1.0):
            raise ConfigError("dropout rates must lie in [0, 1)")

    def lr_for_epoch(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch: halved after each schedule point."""
        halvings = sum(1 for p in LR_HALVING_EPOCHS if epoch > p)
        return self.base_lr * (0.5 ** halvings)

    def to_echo(self) -> str:
        """One ``key = value`` line per echoed field, in field order."""
        return "".join(f"{name} = {getattr(self, name)}\n" for name in _ECHOED)


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
# worker threads never change a result, so a checkpoint does not record them
_ECHOED = tuple(name for name in _FIELDS if name != "threads")


def _convert(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError
            return value
    except ValueError:
        what = "an integer" if f.type in ("int", int) else "a finite number"
        raise ConfigError(f"config key {name}: expected {what}, got {raw!r}") from None
    return raw


def parse_config_lines(lines, source: str, keys) -> dict[str, str]:
    """key = value pairs, '#' comments, blank lines ignored; a key not in
    ``keys`` is unknown, and a key may be given once."""
    out: dict[str, str] = {}
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{no}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{source}:{no}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{no}: config key {key!r} is given twice")
        out[key] = val.strip()
    return out


def load_run_config(path: str | None, overrides: dict[str, object] | None = None) -> TrainConfig:
    """Merge defaults <- config file <- overrides (``None`` overrides are unset).

    Defaulted keys are reported once on stderr so a run's effective
    configuration is never a surprise.
    """
    raw: dict[str, str] = {}
    if path is not None:
        raw = parse_config_lines(read_text(path, ConfigError).splitlines(), path, _FIELDS)
    kwargs: dict[str, object] = {k: _convert(k, v) for k, v in raw.items()}
    kwargs.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    defaulted = sorted(set(_FIELDS) - set(kwargs))
    if defaulted:
        print(f"config: using defaults for: {', '.join(defaulted)}", file=sys.stderr)
    try:
        return TrainConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:  # an override that is not a key
        raise ConfigError(str(exc)) from exc


def config_from_echo(echo: str) -> TrainConfig:
    """Rebuild a TrainConfig from a checkpoint's config echo, as ``to_echo``
    writes it: one line per echoed ``TrainConfig`` key and nothing else.  The
    checkpoint's magic is its only format version, so the echo holds no
    version line, any key that is not an echoed field is unknown, and a
    missing key is refused rather than defaulted."""
    raw = parse_config_lines(echo.splitlines(), "config echo", _ECHOED)
    missing = [k for k in _ECHOED if k not in raw]
    if missing:
        raise ConfigError(f"config echo: no line for key {missing[0]!r}")
    return TrainConfig(**{k: _convert(k, v) for k, v in raw.items()})  # type: ignore[arg-type]
