"""Shared exception types."""


class PriceDomainError(ValueError):
    """A price fell outside the feasible domain."""


class PolicyProtocolError(RuntimeError):
    """A policy violated the pass protocol."""


class UndefinedRegretError(ValueError):
    """Relative regret is undefined (deterministic benchmark is zero)."""


class ConfigError(ValueError):
    """A config file or flag combination could not be interpreted."""
