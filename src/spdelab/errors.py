"""Exception types shared across the package.

Validation failures raise subclasses of InvalidArgumentError or DomainError;
runtime integration failures raise subclasses of NumericError.  The command
line layer maps the first group to exit code 2 and the second to exit code 3.
ResourceLimitError, a construction refused before anything is allocated,
also maps to exit code 2: nothing ran, so there is no numeric failure.
"""
from __future__ import annotations


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(InvalidArgumentError):
    """Point, grid, or region dimensions disagree."""


class GeometryError(InvalidArgumentError):
    """Regions violate a geometric placement rule."""


class EmptyRegionError(InvalidArgumentError):
    """A region contains no grid node or no time step."""


class DomainError(ValueError):
    """Field values leave the mathematical domain of an operation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InsufficientDataError(ValueError):
    """Too few usable data points for a fit or estimate."""


class ModelInvalidError(InvalidArgumentError):
    """Coefficient model violates ellipticity or growth bounds."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ConfigError(ValueError):
    """Configuration text is malformed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StateError(RuntimeError):
    """An object lacks the recorded state an operation needs."""


class NumericError(RuntimeError):
    """A numerical procedure failed."""


class BlowUpError(NumericError):
    """Integration produced a non-finite or absurdly large value."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class ResourceLimitError(RuntimeError):
    """A construction would exceed its configured size budget."""
