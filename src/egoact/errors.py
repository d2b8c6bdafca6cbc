"""Exception types shared across the pipeline, and the parameter checks
that raise them: each record field declares its rule with ``param`` beside
its default, and ``check_params`` alone refuses a value that breaks it with a ConfigError.

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


def check_positive(name: str, value, kind: str = "float", least=None, choices=None) -> None:
    """Raise ConfigError unless ``value`` keeps the rule that ``param`` declares for a
    ``kind`` field, by default a finite positive number. A bool is no number."""
    if choices is not None:
        ok, words = value in choices, f"one of {choices}"
    elif kind == "bool":
        ok, words = isinstance(value, bool), "true or false"
    elif kind == "tuple":
        ok, words = isinstance(value, tuple), "a tuple of finite positive numbers"
    elif kind == "int":
        least = 1 if least is None else least
        ok, words = isinstance(value, numbers.Integral) and value >= least, f"an integer >= {least}"
    else:
        words = "a finite positive number" if least is None else f"a finite number >= {least}"
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
        ok = ok and (value > 0 if least is None else value >= least)
    if not ok or isinstance(value, bool) and kind != "bool":
        raise ConfigError(f"{name} must be {words}, got {value!r}")
    for element in value if kind == "tuple" else ():
        check_positive(name, element)


def param(default, least=None, choices=None):
    """A record field holding ``default``, which ``check_params`` checks as one of ``choices``
    or, by its annotation, as a switch (``bool``), finite positive reals (``tuple``), an
    integer >= ``least`` or 1 (``int``), or else a finite real >= ``least`` or > 0; a None
    default admits None."""
    return field(default=default, metadata={"least": least, "choices": choices})


def check_params(record) -> None:
    """Raise ConfigError unless every ``param`` field of ``record`` keeps its rule."""
    for f in fields(record):
        value = getattr(record, f.name)
        if "least" in f.metadata and not (value is None and f.default is None):
            check_positive(f.name, value, getattr(f.type, "__name__", f.type), **f.metadata)
