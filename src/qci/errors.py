"""Exception hierarchy shared by every module in the package."""


class QciError(Exception):
    """Base class for all package errors."""


class PolyParseError(QciError):
    """Malformed polynomial text. Carries the offending position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonHomogeneousError(PolyParseError):
    """The written terms do not share a single total degree."""


class GuardError(QciError):
    """A documented precondition on user input was violated."""


class InternalError(QciError):
    """A certified invariant failed. This indicates a bug, not bad input."""
