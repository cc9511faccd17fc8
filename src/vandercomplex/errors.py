"""Exception types shared across the package, and the strict integer check."""

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
