"""Exception types shared across the package."""


class SudlerError(Exception):
    """Base class for all package errors."""


class ParseError(SudlerError):
    """Malformed alpha specification string.

    Carries the character position of the first offending token.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RationalDepthError(SudlerError):
    """A rational alpha has no convergents beyond its last one."""


class RangeError(SudlerError):
    """Integer argument outside the range supported by the table."""


class BudgetError(SudlerError):
    """Operation size exceeds the configured work budget."""


class InvalidDigitsError(SudlerError):
    """Digit vector violates the Ostrowski admissibility rules."""

    def __init__(self, message, digits=None, violations=()):
        super().__init__(message)
        self.digits = digits
        self.violations = list(violations)


class PoleError(SudlerError):
    """Cotangent argument landed on (or within guard distance of) a pole."""


class ZeroFactorError(SudlerError):
    """A product factor is exactly zero where a nonzero value is required."""
