"""Exception hierarchy shared across the package."""


class EmoconsError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ContractError(EmoconsError):
    """A precondition or invariant of an operation was violated by the caller."""


class ConfigError(EmoconsError):
    """A configuration value or combination of values is invalid."""


class ParseError(EmoconsError):
    """A file could not be parsed; carries the offending file and line number."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


class StructuralError(EmoconsError):
    """A file parsed but its overall structure is unusable (empty, ragged, misaligned)."""
