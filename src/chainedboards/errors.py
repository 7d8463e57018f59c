"""Exception types shared across the package."""

from __future__ import annotations


class ChainedBoardsError(Exception):
    """Base class for all errors raised by this package."""


class InputDomainError(ChainedBoardsError):
    """An argument is outside the domain an operation is defined on."""


class ValidationError(ChainedBoardsError):
    """An object violates a structural invariant.

    ``problems`` holds one human-readable diagnostic per violation.
    """

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = problems if problems is not None else [message]


class ParseError(ChainedBoardsError):
    """A document could not be parsed; the message carries the location."""


class UnsupportedDomainError(ChainedBoardsError):
    """The requested operation is not defined for this family of inputs."""


def clip(value: object, limit: int = 40) -> str:
    """``str(value)`` cut to its first ``limit`` characters plus its length,
    so a message that quotes input (a string, or a number as long as a
    document's n or k) stays short whatever the input's size."""
    text = str(value)
    if len(text) <= limit:
        return text
    return f"{text[:limit]}… ({len(text)} characters)"
