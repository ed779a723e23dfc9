"""Experiment configuration: flat key=value files with # comments.

All randomness flows from the single ``seed`` through named sub-seeds
(teacher, data, distill, pairs), so components stay reproducible in
isolation. ``QUANTDISTILL_SEED`` in the environment overrides the seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .distiller import DEFAULT_CALIBRATION_BATCHES
from .errors import ConfigError
from .quantizer import SUPPORTED_BIT_WIDTHS

SEED_ENV_VAR = "QUANTDISTILL_SEED"


@dataclass
class ExperimentConfig:
    seed: int = 42

    # synthetic data space
    n_identities: int = 200
    latent_dim: int = 16
    input_dim: int = 64
    noise_sigma: float = 0.15

    # network
    hidden_dim: int = 64
    embed_dim: int = 32

    # teacher pretraining
    teacher_iterations: int = 2500
    teacher_lr: float = 0.1

    # distillation
    batch_size: int = 64
    iterations: int = 2000
    lr: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    bits: list[int] = field(default_factory=lambda: [8, 6])
    calibration_batches: int = DEFAULT_CALIBRATION_BATCHES

    # evaluation
    n_pairs: int = 2000
    far_targets: list[float] = field(default_factory=lambda: [0.01])

    out_dir: str = "runs"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value}", field=f.name)
        if self.n_identities < 2:
            raise ConfigError("need at least 2 identities (verification is undefined below that)",
                              field="n_identities")
        if self.latent_dim < 2 or self.input_dim < 2:
            raise ConfigError("dims must be >= 2", field="latent_dim/input_dim")
        if self.noise_sigma < 0:
            raise ConfigError("must be non-negative", field="noise_sigma")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("network dims must be >= 1", field="hidden_dim/embed_dim")
        if self.teacher_iterations < 1:
            raise ConfigError("must be >= 1", field="teacher_iterations")
        if self.teacher_lr <= 0:
            raise ConfigError("must be positive", field="teacher_lr")
        if self.batch_size < 1:
            raise ConfigError("must be >= 1", field="batch_size")
        if self.iterations < 0:
            raise ConfigError("must be >= 0", field="iterations")
        if self.lr <= 0:
            raise ConfigError("must be positive", field="lr")
        if not 0 <= self.momentum < 1:
            raise ConfigError("must be in [0, 1)", field="momentum")
        if self.weight_decay < 0:
            raise ConfigError("must be non-negative", field="weight_decay")
        validate_bits(self.bits)
        if self.calibration_batches < 1:
            raise ConfigError("must be >= 1", field="calibration_batches")
        if self.n_pairs < 2 or self.n_pairs % 2 != 0:
            raise ConfigError("must be even and >= 2", field="n_pairs")
        for f in self.far_targets:
            if not 0 < f < 1:
                raise ConfigError(f"FAR target {f} outside (0, 1)", field="far_targets")

    def sub_seed(self, label: str) -> int:
        from .synth import derive_seed

        return derive_seed(self.seed, label)


def validate_bits(bits: list[int]) -> None:
    """A bit-width list names at least one supported width, each once."""
    if not bits:
        raise ConfigError("at least one bit width required", field="bits")
    for b in bits:
        if b not in SUPPORTED_BIT_WIDTHS:
            raise ConfigError(f"bit width {b} not in {SUPPORTED_BIT_WIDTHS}", field="bits")
    if len(set(bits)) != len(bits):
        raise ConfigError(f"repeated bit width in {bits}", field="bits")


_INT_LIST_KEYS = {"bits"}
_FLOAT_LIST_KEYS = {"far_targets"}


# Each key's value parses to the type of its default.
_DEFAULTS = vars(ExperimentConfig())


def parse_value(key: str, raw: str):
    """Parse the raw text of one config value; unknown keys are errors."""
    if key not in _DEFAULTS:
        raise ConfigError("unknown key", field=key)
    try:
        if key in _INT_LIST_KEYS:
            return [int(v.strip()) for v in raw.split(",") if v.strip()]
        if key in _FLOAT_LIST_KEYS:
            return [float(v.strip()) for v in raw.split(",") if v.strip()]
        return type(_DEFAULTS[key])(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r}: {exc}", field=key) from exc


def load_config(path) -> ExperimentConfig:
    """Parse a key=value config file; unknown keys are errors."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        values[key] = parse_value(key, raw)
    if SEED_ENV_VAR in os.environ:
        try:
            values["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"invalid {SEED_ENV_VAR}: {os.environ[SEED_ENV_VAR]!r}",
                              field="seed") from exc
    return ExperimentConfig(**values)

