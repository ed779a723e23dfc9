"""Exception hierarchy shared across the package.

The CLI maps each class to a distinct process exit code, so keep the
classes flat and specific.
"""


class QuantDistillError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QuantDistillError):
    """Shapes, axes, or architectures do not compose."""


class DomainError(QuantDistillError):
    """A value lies outside an operation's mathematical domain."""


class StateError(QuantDistillError):
    """An operation was invoked before its required state exists
    (e.g. quantized forward without calibration)."""


class FormatError(QuantDistillError):
    """A serialized file is malformed.

    ``field`` names the failing header field; ``offset`` is the byte
    offset at which parsing failed, when known.
    """

    def __init__(self, message: str, *, field: str | None = None, offset: int | None = None):
        parts = [message]
        if field is not None:
            parts.append(f"field={field}")
        if offset is not None:
            parts.append(f"offset={offset}")
        super().__init__("; ".join(parts))
        self.field = field
        self.offset = offset


class ConfigError(QuantDistillError):
    """Invalid configuration value; ``field`` names the offending key."""

    def __init__(self, message: str, *, field: str | None = None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


def step_error(stage: str, step: int, last_loss: float | None, cause: object) -> DomainError:
    """Error for a training step that failed, e.g. on a non-finite loss or
    update: names the stage (``pretrain``, ``distill w<b>``), the step and
    the last finite loss, so a diverging run says where it failed."""
    last = "none" if last_loss is None else f"{last_loss:.9g}"
    return DomainError(f"{stage} step {step}: {cause} (last finite loss {last})")
