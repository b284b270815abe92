"""Exception types shared across the package."""


class EdgepotError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EdgepotError, ValueError):
    """Invalid physical or discrete configuration.

    Carries the full list of violations so callers can report them all at
    once instead of fixing one at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class OutOfDomainError(EdgepotError, ValueError):
    """Query for a node that is neither plasma nor a stored ghost."""


class MissingNeighborError(EdgepotError, ValueError):
    """An x-direction stencil reaches past the stored unknowns."""


class SingularStructureError(EdgepotError, ValueError):
    """Assembled matrix has an empty row or column."""


class NumericalError(EdgepotError):
    """A numerical failure; the CLI exits with status 2."""


class NonFiniteSourceError(NumericalError, ValueError):
    """Right-hand side contains NaN or infinity."""


class NonFiniteInitialError(NumericalError, ValueError):
    """Initial data evaluates to NaN or infinity on the grid."""


class EtaZeroUndefinedError(NumericalError, ZeroDivisionError):
    """The single-field scheme divides by eta and is undefined at eta = 0."""


class SingularPivotError(NumericalError, RuntimeError):
    """LU factorization hit a zero or sub-threshold pivot."""


class DimensionMismatchError(EdgepotError, ValueError):
    """Vector length does not match the factored matrix dimension."""


class LogDomainError(EdgepotError, ValueError):
    """Logarithm argument of a manufactured solution is non-positive."""


class ParseError(EdgepotError, ValueError):
    """Malformed configuration text."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class UnknownKeyError(ParseError):
    """Configuration key is not recognized."""
