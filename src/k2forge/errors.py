"""Exception hierarchy shared by all k2forge modules.

Two classes of failure matter to callers: bad input (precondition
violations, singular parameters, non-rational data) and internal
certificate violations (a verification that should have been impossible
to fail).  The CLI maps them to exit codes 2 and 3 respectively; a stored
record of the wrong JSON shape is exit 1.
"""


class K2ForgeError(Exception):
    """Base class for all library errors."""


class PreconditionError(K2ForgeError):
    """Input violates a documented precondition (CLI exit code 2)."""


class SingularModelError(PreconditionError):
    """A generated curve is singular (vanishing discriminant)."""

    def __init__(self, message, vanished=None):
        super().__init__(message)
        self.vanished = vanished  # name of the factor that vanished, if known


class NonRationalSupportError(PreconditionError):
    """A divisor or branch needs a point that is not rational over Q."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class VerificationError(K2ForgeError):
    """A certificate check failed (CLI exit code 3; indicates a bug or tampering)."""


class InsufficientPrecisionError(K2ForgeError):
    """A truncated series was zero to its truncation order where a unit was required."""


class RecordFormatError(K2ForgeError):
    """A stored record does not have the documented JSON shape (CLI exit code 1)."""
