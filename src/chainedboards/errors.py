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
    document's n or k) stays short whatever the input's size.  It never
    raises: an int beyond the interpreter's digit limit for ``str`` is
    described the same way without converting it in full, also inside
    tuples and lists at any depth; any other value that ``str`` fails on
    is named by its type and the error."""
    try:
        text = str(value)
    except ValueError as exc:  # an int past the digit limit, or something holding one
        if isinstance(value, int):
            return _clip_long_int(value, limit)
        if isinstance(value, (tuple, list)):
            items = ", ".join(repr(v) if isinstance(v, str) else clip(v, limit) for v in value)
            text = f"[{items}]" if isinstance(value, list) else f"({items})"
        else:
            text = f"<{type(value).__name__}: {exc}>"
    if len(text) <= limit:
        return text
    return f"{text[:limit]}… ({len(text)} characters)"


def _clip_long_int(value: int, limit: int) -> str:
    """What ``clip`` gives for ``str(value)``, from the int's leading digits."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    # the float constant exceeds log10(2), so for b bits (b < 2^53, exact as a
    # float) the estimate is never short: it may only need to come down
    digits = int(value.bit_length() * 0.30102999566398120) + 1
    while 10 ** (digits - 1) > value:
        digits -= 1
    lead = value // 10 ** (digits - (limit - len(sign)))
    return f"{sign}{lead}… ({len(sign) + digits} characters)"
