"""Exception types shared across the package, the strict integer check and the JSON reader."""

import json
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
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def read_json(text: str, what: str):
    """The JSON value of an input file's text.  Bad syntax, nesting too deep
    for the decoder and integers past the interpreter's digit limit all
    raise a FormatError naming `what`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} file is not valid JSON: {exc}") from exc
