"""Exception types shared across the package, and the shared config checks."""

import dataclasses
import math


class AlqsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AlqsimError, ValueError):
    """Invalid configuration or parameter value, detectable before a run starts."""


def reject_non_finite(config) -> None:
    """Raise :class:`ConfigError` naming the first float field of the
    dataclass ``config`` that is NaN or infinite.

    Range checks written as ``value > bound`` let ``inf`` through, and an
    infinite separation, cost or concentration only fails mid-run (or not at
    all), so every config dataclass calls this first.
    """
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(config).__name__}.{field.name} must be "
                              f"finite, got {value!r}")


def require_positive_int(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a positive ``int``."""
    if not isinstance(value, int) or value <= 0:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
