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


class NumericalError(EdgepotError):
    """A numerical failure; the CLI exits with status 2."""


class SingularPivotError(NumericalError, RuntimeError):
    """LU factorization hit a zero or sub-threshold pivot."""


class ParseError(EdgepotError, ValueError):
    """Malformed configuration text."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
