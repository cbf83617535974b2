"""Exception types shared across the package, and the integer rule that raises one."""

from __future__ import annotations

import numbers


class DomainError(ValueError):
    """Input violates a documented precondition (bad coordinate, short route, ...)."""


class NoRouteError(DomainError):
    """No usable path exists between the requested endpoints."""


class GenerationError(DomainError):
    """Synthetic data generation could not satisfy its constraints."""


class ParseError(ValueError):
    """An input file is malformed; the message carries row/feature context."""


def check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is an integral number (numpy integers included,
    a bool excluded) in [low, high]; DomainError otherwise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
