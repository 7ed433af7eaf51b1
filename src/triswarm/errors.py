"""Exception types shared across the library."""


class TriswarmError(Exception):
    """Base class for all library errors."""


class InvalidInputError(TriswarmError, ValueError):
    """Malformed or out-of-contract input."""


class DomainError(TriswarmError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateConfigurationError(TriswarmError):
    """Configuration has no usable structure (e.g. zero links)."""


class IntegrationDivergedError(TriswarmError):
    """Simulation produced non-finite state."""

    def __init__(self, message, snapshot=None, step=None):
        super().__init__(message)
        self.snapshot = snapshot
        self.step = step


class GenerationError(TriswarmError):
    """A generated lattice failed its rigidity and link-length verification."""


class SingularityError(TriswarmError):
    """Zero-length link encountered where a direction is required."""
