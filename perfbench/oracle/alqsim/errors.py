"""Exception types shared across the package."""


class AlqsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AlqsimError, ValueError):
    """Invalid configuration or parameter value, detectable before a run starts."""
