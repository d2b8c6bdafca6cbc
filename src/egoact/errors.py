"""Exception types shared across the pipeline, and the parameter checks
that raise them: each record field declares its range with ``param`` beside
its default, and ``check_params`` refuses a value outside it with a ConfigError.

The CLI maps these onto exit codes: validation and configuration
problems exit 1, file format and I/O problems exit 2, solver
non-convergence exits 3.
"""

import math
import numbers
from dataclasses import field, fields


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PipelineError):
    """An input violates a documented precondition."""


class ConfigError(ValidationError):
    """A parameter is out of range, or a config file or flag combination is invalid."""


class DomainError(ValidationError):
    """A numeric input lies outside the mathematical domain of an operation."""


class FormatError(PipelineError):
    """A file does not look like the expected format (bad magic or header)."""


class CorruptionError(FormatError):
    """Declared sizes in a file header disagree with the actual payload."""


class ConvergenceError(PipelineError):
    """An iterative solver exhausted its iteration budget."""


def check_positive(name: str, value, count: bool = False, zero: bool = False) -> None:
    """Raise ConfigError unless ``value`` is a finite positive number or,
    with ``count``, an integer >= 1; ``zero`` admits 0 as well. A bool is
    neither."""
    if count:
        kind, ok = f"an integer >= {0 if zero else 1}", isinstance(value, numbers.Integral)
    else:
        kind = f"a finite {'nonnegative' if zero else 'positive'} number"
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if isinstance(value, bool) or not ok or value < 0 or (value == 0 and not zero):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def param(default, least=None):
    """A record field holding ``default``, which ``check_params`` checks as a count if it is
    annotated ``int``, else as a finite real: positive, or with ``least`` no less than it."""
    return field(default=default, metadata={"least": least})


def check_params(record) -> None:
    """Raise ConfigError unless every ``param`` field of ``record`` is in its range."""
    for f in fields(record):
        if "least" in f.metadata:
            least = f.metadata["least"]
            check_positive(f.name, value := getattr(record, f.name), f.type in ("int", int), least == 0)
            if least is not None and value < least:
                raise ConfigError(f"{f.name} must be at least {least}, got {value!r}")
