"""Exception types shared across the package, the strict integer and iterable
checks, the JSON reader and the one form refusals print a caller's value in."""

import json
from collections.abc import Iterable
from numbers import Integral


class VanderComplexError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(VanderComplexError, ValueError):
    """Malformed input data: permutations, diagrams, morphisms, vectors."""


class FormatError(ValidationError):
    """Input text that does not conform to the expected file format."""


class StructureError(ValidationError):
    """A diagram that is not closed (an arc end used other than twice)."""


class PreconditionError(ValidationError):
    """An operation was called outside its documented preconditions."""


class CompositionError(ValidationError):
    """Morphisms whose boundary color vectors do not match."""


class SizeError(VanderComplexError):
    """A size cap or memory budget would be exceeded."""


class MembershipError(VanderComplexError):
    """A vector expected to lie in a subspace does not."""


class ConsistencyError(VanderComplexError):
    """An internal invariant failed; indicates a construction bug."""


_FULL = 10**80  # integers below this in magnitude print in full


def _decimal(value: int) -> str:
    """value in decimal, or its digit count past 80 digits, so a refusal
    that names an integer stays one line at any size: str() of an int past
    the interpreter's digit limit (4,300 digits by default) raises
    ValueError."""
    magnitude = abs(value)
    if magnitude < _FULL:
        return str(value)
    digits = int(magnitude.bit_length() * 0.30103)  # at most the digit count
    while 10**digits <= magnitude:
        digits += 1
    return f"{'below zero, ' if value < 0 else ''}of {digits:,} digits"


_REPR_CAP = 120  # the most characters a refusal prints of a value's repr


def _shown(value) -> str:
    """value as a refusal prints it, on one line at any size: an int through
    `_decimal`, a tuple entry by entry, and anything else by its repr cut
    to _REPR_CAP characters.  A repr that hits the digit limit (a list
    holding a huge int, say) prints as the type's name."""
    if isinstance(value, int):
        return _decimal(value)
    if type(value) is tuple:
        entries = ", ".join(map(_shown, value))
        return f"({entries},)" if len(value) == 1 else f"({entries})"
    try:
        text = repr(value)
    except ValueError:
        text = f"<{type(value).__name__}>"
    return text if len(text) <= _REPR_CAP else f"{text[: _REPR_CAP - 3]}..."


def strict_int(value, what: str) -> int:
    """value as an int: bools, non-integral floats and non-numbers are refused.

    A plain int returns at once; the abstract-base-class test that admits
    numpy integers costs about ten times as much."""
    if type(value) is int:
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {_shown(value)}")


def strict_items(value, what: str, of: str) -> tuple:
    """value's items as a tuple; a value that is not iterable is refused,
    named as `what`, an iterable of `of`.

    A tuple returns at once; the abstract-base-class test costs about ten
    times as much."""
    if type(value) is tuple:
        return value
    if not isinstance(value, Iterable):
        raise ValidationError(f"{what} must be an iterable of {of}, got {type(value).__name__}")
    return tuple(value)


def read_json(text: str, what: str):
    """The JSON value of an input file's text.  Text that is not str, bytes
    or bytearray, bad syntax, nesting too deep for the decoder and integers
    past the interpreter's digit limit all raise a FormatError naming
    `what`."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise FormatError(f"{what} file text must be str, bytes or bytearray, got {type(text).__name__}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} file is not valid JSON: {exc}") from exc
