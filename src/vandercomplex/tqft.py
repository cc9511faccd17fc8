"""The special Frobenius algebras on GF(2)^n and their cobordism maps.

The dimension-n algebra has basis e_1..e_n with pointwise product, counit
summing coordinates, and comultiplication doubling basis vectors.  Because
the algebra is special (merge after split is the identity), every
connected cobordism with r inputs and l outputs induces the same map
regardless of genus, and that map has a closed form on basis tensors: an
all-equal input e_a x ... x e_a goes to the constant output e_a x ... x
e_a, anything else goes to zero.  Connected maps are generated straight
from this rule, never by composing individual merge/split matrices.

Genus is therefore not represented anywhere in this package.

Sizes are read by `gf2`'s shape rule (`_size`), and every matrix is built
as row integers once the `gf2` byte ceiling admits its shape.
"""

from dataclasses import dataclass
from math import prod

from .errors import SizeError, ValidationError
from .gf2 import GF2Matrix, _check_bytes, _matrix, _size

FROBENIUS_CAP = 8  # the largest algebra dimension frobenius_check takes
TENSOR_BUDGET = 1 << 28  # entries of an assembled Kronecker product


@dataclass(frozen=True)
class AlgebraSpec:
    """The pointwise-product algebra of a given dimension."""

    dim: int

    def __post_init__(self):
        dim = _size(self.dim, "algebra dimension")
        if dim < 1:
            raise ValidationError(f"algebra dimension must be positive, got {dim}")
        object.__setattr__(self, "dim", dim)


def constant_tensor_index(value: int, count: int, radix: int) -> int:
    """Flat index of the basis tensor repeating `value` `count` times."""
    idx = 0
    for _ in range(count):
        idx = idx * radix + value
    return idx


def connected_map(spec: AlgebraSpec, r: int, l: int) -> GF2Matrix:
    """Matrix of the connected cobordism with r inputs and l outputs.

    Shape dim^l x dim^r.  For r = 0 this is the unit followed by splits
    (the column summing all constant outputs); for l = 0 it is merges
    followed by the counit (the row hitting all constant inputs).  A shape
    over the `gf2` byte ceiling is refused before anything is built.
    """
    r, l = _size(r, "input circle count r"), _size(l, "output circle count l")
    if r == 0 and l == 0:
        raise ValidationError("a closed component has no boundary; use sphere_scalar instead")
    d = spec.dim
    _check_bytes(d**l, d**r)
    ints = [0] * d**l
    for a in range(d):  # with l = 0 every input lands on the one row
        ints[constant_tensor_index(a, l, d)] |= 1 << constant_tensor_index(a, r, d)
    return _matrix(d**l, d**r, ints)


def sphere_scalar(spec: AlgebraSpec) -> int:
    """Value of a closed sphere: counit of the unit, i.e. dim mod 2."""
    return spec.dim % 2


def structure_maps(spec: AlgebraSpec) -> tuple[GF2Matrix, GF2Matrix, GF2Matrix, GF2Matrix]:
    """The connected maps mul, unit, comul and counit ((r, l) = (2, 1), (0, 1),
    (1, 2), (1, 0)), refused over the `gf2` byte ceiling before any is built."""
    d = spec.dim
    _check_bytes(d * d, d)  # comul, the largest of the four
    return tuple(connected_map(spec, r, l) for r, l in ((2, 1), (0, 1), (1, 2), (1, 0)))


def swap_map(d: int) -> GF2Matrix:
    """The tensor-factor swap on a d*d-dimensional two-factor space,
    refused over the `gf2` byte ceiling before any row is built."""
    d = _size(d, "swap factor dimension d")
    _check_bytes(d * d, d * d)
    return _matrix(d * d, d * d, [1 << (a * d + b) for b in range(d) for a in range(d)])


def frobenius_check(spec: AlgebraSpec) -> bool:
    """Verify the algebra axioms as matrix identities.

    Checks associativity, unit, coassociativity, counit, the Frobenius
    relation, commutativity, and that merge after split is the identity.
    Refused past FROBENIUS_CAP.
    """
    if spec.dim > FROBENIUS_CAP:
        raise SizeError(f"dimension {spec.dim} over the cap {FROBENIUS_CAP}: matrices scale as dim^3")
    d = spec.dim
    mul, unit, comul, counit = structure_maps(spec)
    one = GF2Matrix.identity(d)
    t = tensor_assemble

    checks = [
        mul @ t([mul, one]) == mul @ t([one, mul]),
        mul @ t([unit, one]) == one,
        mul @ t([one, unit]) == one,
        t([comul, one]) @ comul == t([one, comul]) @ comul,
        t([counit, one]) @ comul == one,
        t([one, counit]) @ comul == one,
        t([mul, one]) @ t([one, comul]) == comul @ mul,
        t([one, mul]) @ t([comul, one]) == comul @ mul,
        mul @ swap_map(d) == mul,
        mul @ comul == one,
    ]
    return all(checks)


def tensor_assemble(factors) -> GF2Matrix:
    """Kronecker product of the factors in list order.

    Index convention is mixed-radix with the leftmost factor most
    significant.  An empty list gives the 1x1 identity.  A product of more
    than TENSOR_BUDGET entries, or over the `gf2` byte ceiling, is refused
    before it is built.  A product row is a right-factor row shifted to each
    set bit of a left row: one multiply by the left row spread to its width.
    """
    factors = list(factors)
    for i, f in enumerate(factors):
        if not isinstance(f, GF2Matrix):
            raise ValidationError(f"factor {i} must be a GF2Matrix, got {type(f).__name__}")
    rows = prod(f.rows for f in factors)
    cols = prod(f.cols for f in factors)
    if rows * cols > TENSOR_BUDGET:
        dims = " x ".join(f"{f.rows}x{f.cols}" for f in factors) or "(empty)"
        raise SizeError(f"assembled size {rows}x{cols} exceeds the budget {TENSOR_BUDGET}: {dims}")
    _check_bytes(rows, cols)
    ints = [1]
    for f in factors:
        spread = [sum(1 << c * f.cols for c in range(x.bit_length()) if x >> c & 1) for x in ints]
        ints = [s * y for s in spread for y in f.ints]
    return _matrix(rows, cols, ints)
