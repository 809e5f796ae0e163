"""Exception types shared across the package."""


class DmincutError(Exception):
    """Base class for all errors raised by this package."""


class NetworkParseError(DmincutError, ValueError):
    """A network or cut file could not be parsed; message carries the line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(DmincutError, ValueError):
    """Structurally well-formed input that violates a model invariant."""


class StateSpaceLimitError(DmincutError, RuntimeError):
    """Exhaustive computation refused because the state space exceeds the guard."""
