"""Exception types shared across the package."""

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """Raised when inputs fail structural validation (bad geometry, bad config)."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot produce a trustworthy result."""
