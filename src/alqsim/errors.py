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
    """Raise :class:`ConfigError` unless ``value`` is a positive ``int``;
    ``True`` is an ``int`` to Python but is rejected."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def require_seed(name: str, seed, rounds: int = 1) -> None:
    """Raise :class:`ConfigError` unless ``seed`` is an ``int`` (not a
    ``bool``) and every round seed ``seed + i``, ``i < rounds``, lies in
    [-2**63, 2**63).

    Seeds are folded into numpy's unsigned 64-bit range, which is one-to-one
    only on a range of 2**64 seeds; beyond it, 2**64 + 5 would draw seed 5's
    data.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"{name} must be an integer, got {seed!r}")
    if not -2**63 <= seed <= 2**63 - rounds:
        raise ConfigError(f"{name} must lie in [-2**63, 2**63 - {rounds}] so "
                          f"that every round seed fits in 64 bits, got {seed!r}")
