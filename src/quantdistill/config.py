"""Experiment configuration: flat key=value files with # comments.

``ExperimentConfig`` is the one home of the pipeline's default values;
the stage configs it fills (``TeacherConfig``, ``DistillConfig``) have none.

All randomness flows from the single ``seed`` through named sub-seeds
(teacher, data, distill, pairs), so components stay reproducible in
isolation. ``QUANTDISTILL_SEED`` in the environment overrides the seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .bench_eval import DEFAULT_FAR_TARGETS
from .distiller import DEFAULT_CALIBRATION_BATCHES
from .errors import ConfigError, DomainError
from .graph import check_sgd_params
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
    # production scale runs 11K iterations at lr 1e-4; the desk-scale task
    # keeps the rate and scales the step count down with the task
    iterations: int = 2000
    lr: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    bits: list[int] = field(default_factory=lambda: [8, 6])
    calibration_batches: int = DEFAULT_CALIBRATION_BATCHES

    # evaluation
    n_pairs: int = 2000
    far_targets: list[float] = field(default_factory=lambda: list(DEFAULT_FAR_TARGETS))

    out_dir: str = "runs"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value}", field=f.name)
        if self.n_identities < 2:
            raise ConfigError("need at least 2 identities (verification is undefined below that)",
                              field="n_identities")
        for key in ("latent_dim", "input_dim"):
            if getattr(self, key) < 2:
                raise ConfigError("must be >= 2", field=key)
        if self.noise_sigma < 0:
            raise ConfigError("must be non-negative", field="noise_sigma")
        for key in ("hidden_dim", "embed_dim"):
            if getattr(self, key) < 1:
                raise ConfigError("must be >= 1", field=key)
        if self.teacher_iterations < 1:
            raise ConfigError("must be >= 1", field="teacher_iterations")
        if self.batch_size < 1:
            raise ConfigError("must be >= 1", field="batch_size")
        if self.iterations < 0:
            raise ConfigError("must be >= 0", field="iterations")
        for lr_key in ("lr", "teacher_lr"):
            try:
                check_sgd_params(getattr(self, lr_key), self.momentum, self.weight_decay)
            except DomainError as exc:
                # The message starts with the parameter's name: lr, momentum
                # or weight_decay.
                name, _, message = str(exc).partition(" ")
                raise ConfigError(message, field=lr_key if name == "lr" else name) from None
        if not self.bits:
            raise ConfigError("at least one bit width required", field="bits")
        for b in self.bits:
            if b not in SUPPORTED_BIT_WIDTHS:
                raise ConfigError(f"bit width {b} not in {SUPPORTED_BIT_WIDTHS}", field="bits")
        if len(set(self.bits)) != len(self.bits):
            raise ConfigError(f"repeated bit width in {self.bits}", field="bits")
        if self.calibration_batches < 1:
            raise ConfigError("must be >= 1", field="calibration_batches")
        if self.n_pairs < 2 or self.n_pairs % 2 != 0:
            raise ConfigError("must be even and >= 2", field="n_pairs")
        if not self.far_targets:
            raise ConfigError("at least one FAR target required", field="far_targets")
        for f in self.far_targets:
            if not 0 < f < 1:
                raise ConfigError(f"FAR target {f} outside (0, 1)", field="far_targets")
        if len(set(self.far_targets)) != len(self.far_targets):
            raise ConfigError(f"repeated FAR target in {self.far_targets}", field="far_targets")
        if not self.out_dir:
            raise ConfigError("must not be empty", field="out_dir")

    def sub_seed(self, label: str) -> int:
        from .synth import derive_seed

        return derive_seed(self.seed, label)


# Each key's value parses to the type of its default; a list key's elements
# parse to the type of its default's elements.
_DEFAULTS = vars(ExperimentConfig())


def parse_value(key: str, raw: str):
    """Parse the raw text of one config value; unknown keys are errors."""
    if key not in _DEFAULTS:
        raise ConfigError("unknown key", field=key)
    default = _DEFAULTS[key]
    try:
        if isinstance(default, list):
            items = [v.strip() for v in raw.split(",")] if raw.strip() else []
            if "" in items:
                raise ConfigError(f"empty list element in {raw!r}", field=key)
            return [type(default[0])(v) for v in items]
        return type(default)(raw)
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
        if key in values:
            raise ConfigError(f"line {lineno}: key set a second time", field=key)
        values[key] = parse_value(key, raw)
    if SEED_ENV_VAR in os.environ:
        try:
            values["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"invalid {SEED_ENV_VAR}: {os.environ[SEED_ENV_VAR]!r}",
                              field="seed") from exc
    return ExperimentConfig(**values)

