"""Small argument-validation helpers shared by public constructors."""

from __future__ import annotations

import math
from typing import Union

from repro.exceptions import ConfigurationError

Number = Union[int, float]


def is_positive_finite(value: Number) -> bool:
    """Whether ``value`` is finite and above zero.

    A NaN fails every comparison, so a bare ``value <= 0`` check lets it
    through.  Every number that must be positive and finite — a clock
    period, a trace scale, a cache budget, a task timeout — is checked
    with this.
    """
    return 0 < value < math.inf


def check_positive_int(name: str, value: int) -> int:
    """Validate that ``value`` is a strictly positive integer and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(name: str, value: int) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(name: str, value: Number) -> float:
    """Validate that ``value`` lies in [0, 1] and return it as a float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_in_range(name: str, value: Number, low: Number, high: Number) -> Number:
    """Validate that ``low <= value <= high`` and return ``value``."""
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must lie in [{low}, {high}], got {value}")
    return value
