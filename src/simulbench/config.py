"""Flat key-value experiment configuration.

Config files hold one ``key = value`` pair per line ('#' comments allowed).
Every key has a documented default; unknown keys are errors so drift fails
fast.  Command-line flags override file values.
"""

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .model import ModelConfig


def _parse_int_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    parts = [p for p in str(text).replace(" ", "").split(",") if p]
    if not parts:
        raise ConfigError("empty integer list")
    return tuple(int(p) for p in parts)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one workbench run; defaults give a small smoke setup."""

    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    vocab_size: int = 24
    model_seed: int = 0
    train_k: int = 5
    eval_k: tuple[int, ...] = (1, 3, 5)
    mask: str = "simulmask"          # simulmask | causal
    bias: str = "modified"           # modified | standard
    mode: str = "cached"             # cached | recompute
    dataset: str = ""
    eval_dataset: str = ""           # defaults to dataset
    out: str = "runs/out"
    seed: int = 0
    epochs: int = 20
    learning_rate: float = 1.0
    batch_size: int = 10
    max_seq_len: int = 128
    max_target_len: int = 40

    def __post_init__(self):
        if self.mask not in ("simulmask", "causal"):
            raise ConfigError(f"unknown mask mode {self.mask!r}")
        if self.bias not in ("modified", "standard"):
            raise ConfigError(f"unknown bias mode {self.bias!r}")
        if self.mode not in ("cached", "recompute"):
            raise ConfigError(f"unknown generation mode {self.mode!r}")
        if self.train_k < 1 or any(k < 1 for k in self.eval_k):
            raise ConfigError("wait-k values must be >= 1")
        if not self.eval_k:
            raise ConfigError("need at least one eval k")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("invalid training settings")
        if min(self.seed, self.model_seed) < 0:
            raise ConfigError("seed and model_seed must be >= 0")
        if min(self.max_seq_len, self.max_target_len) < 1:
            raise ConfigError("max_seq_len and max_target_len must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, "
                              f"got {self.learning_rate!r}")
        object.__setattr__(self, "eval_k", tuple(self.eval_k))

    def model_config(self) -> ModelConfig:
        return ModelConfig(n_layers=self.n_layers, n_heads=self.n_heads,
                           d_model=self.d_model, vocab_size=self.vocab_size,
                           seed=self.model_seed)


# key -> parser of its text value, from the field types
_COERCE = {f.name: _parse_int_list if f.type == tuple[int, ...] else f.type
           for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Merge config-file values with CLI overrides into an ExperimentConfig."""
    merged = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _COERCE:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = _COERCE[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(**merged)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), overrides)
