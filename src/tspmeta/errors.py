"""Exception types shared across the toolkit, and check_types, the type rule for config fields.

Everything user-triggerable (bad files, bad configs, oversized inputs)
derives from TspmetaError so the CLI can map it to exit code 2; anything
else escaping a command is an internal failure (exit code 1).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import typing
from enum import Enum


class TspmetaError(Exception):
    """Base class for all user-facing toolkit errors."""


class DimensionMismatchError(TspmetaError):
    """A tour, swap sequence, or matrix does not match the instance size."""


class InstanceTooLargeError(TspmetaError):
    """The exact solver was asked for more cities than its hard limit."""


class ConfigError(TspmetaError):
    """An algorithm or experiment configuration is invalid."""


class InvalidTourError(TspmetaError, ValueError):
    """A tour is not a permutation of 0..n-1. A ValueError too, so that
    callers that catch ValueError from validate_tour still catch it."""


# The most tours a swarm or a GA population may hold. Both build their tours
# one at a time in Python, so a larger size would run for minutes before the
# first iteration; the configs in use hold at most a few hundred.
MAX_POPULATION = 10_000

# The most temperature levels an SA run may hold. The run lists its levels
# before its first proposal, and a cooling factor a hair below 1 would list
# quadrillions; the configs in use hold a few thousand.
MAX_TEMPERATURE_LEVELS = 1_000_000


def _describe(t: type) -> str:
    if t is int:
        return "an integer"
    if t is float:
        return "a finite number"
    if t is str:
        return "a string"
    if issubclass(t, Enum):
        return f"one of {[e.value for e in t]}"
    return "null"


def _check_type(key: str, value, hint):
    """value as the type hint (int, float, str, an Enum, or X | None) asks for.

    An int takes an int but not a bool; a str takes only a str; a float
    takes a finite int or float (returned as a float) but not a bool; an
    Enum takes a member or its value; None passes only where the hint allows
    it. Anything else raises ConfigError naming the key and the expected
    type. Ranges are left to the dataclasses that use the value.
    """
    options = typing.get_args(hint) or (hint,)
    for t in options:
        if isinstance(value, bool):
            continue
        if isinstance(value, t) and t is not float:
            return value  # None where the hint allows it, an int, a str or an enum member
        if t is float and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)  # not nan, not infinite, not an int too large for a float
        if issubclass(t, Enum) and isinstance(value, str):
            with contextlib.suppress(ValueError):
                return t(value)
    expected = " or ".join(_describe(t) for t in options)
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


# typing.get_type_hints evaluates a class's annotations anew on every call
_type_hints = functools.cache(typing.get_type_hints)


def check_types(config) -> None:
    """Check each annotated field of a frozen dataclass with _check_type and
    store the value it returns: an int given for a float becomes a float, an
    enum value its member. Solver configs call this first in __post_init__."""
    for name, hint in _type_hints(type(config)).items():
        object.__setattr__(config, name, _check_type(name, getattr(config, name), hint))


class ParseError(TspmetaError):
    """Input text could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class UnsupportedFormatError(ParseError):
    """The input uses a declared-but-unsupported format feature."""
