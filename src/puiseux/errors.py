"""Exception types shared across the library."""


class PuiseuxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PuiseuxError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(PuiseuxError, ValueError):
    """Malformed textual input.  ``offset`` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ResourceLimitError(PuiseuxError, RuntimeError):
    """An enumeration would exceed the configured size cap."""
