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
"""

from dataclasses import dataclass
from math import prod

from .errors import SizeError, ValidationError
from .gf2 import GF2Matrix, _check_bytes

FROBENIUS_CAP = 8  # the largest algebra dimension frobenius_check takes
TENSOR_BUDGET = 1 << 28  # entries of an assembled Kronecker product


@dataclass(frozen=True)
class AlgebraSpec:
    """The pointwise-product algebra of a given dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"algebra dimension must be positive, got {self.dim}")


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
    if r < 0 or l < 0:
        raise ValidationError("circle counts must be nonnegative")
    if r == 0 and l == 0:
        raise ValidationError(
            "a closed component has no boundary; use sphere_scalar instead"
        )
    d = spec.dim
    _check_bytes(d**l, d**r)
    coords = [
        (constant_tensor_index(a, l, d), constant_tensor_index(a, r, d))
        for a in range(d)
    ]
    return GF2Matrix.from_triplets(d**l, d**r, coords)


def sphere_scalar(spec: AlgebraSpec) -> int:
    """Value of a closed sphere: counit of the unit, i.e. dim mod 2."""
    return spec.dim % 2


def structure_maps(spec: AlgebraSpec) -> tuple[GF2Matrix, GF2Matrix, GF2Matrix, GF2Matrix]:
    """The four structure matrices (mul, unit, comul, counit), refused
    over the `gf2` byte ceiling before any is built."""
    d = spec.dim
    _check_bytes(d * d, d)  # comul, the largest of the four
    mul = GF2Matrix.from_triplets(d, d * d, [(a, a * d + a) for a in range(d)])
    unit = GF2Matrix.from_triplets(d, 1, [(a, 0) for a in range(d)])
    comul = GF2Matrix.from_triplets(d * d, d, [(a * d + a, a) for a in range(d)])
    counit = GF2Matrix.from_triplets(1, d, [(0, a) for a in range(d)])
    return mul, unit, comul, counit


def swap_map(d: int) -> GF2Matrix:
    """The tensor-factor swap on a d*d-dimensional two-factor space,
    refused over the `gf2` byte ceiling before its d*d positions are listed."""
    _check_bytes(d * d, d * d)
    return GF2Matrix.from_triplets(
        d * d, d * d, [(b * d + a, a * d + b) for a in range(d) for b in range(d)]
    )


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
    than TENSOR_BUDGET entries is refused before it is built.
    """
    factors = list(factors)
    rows = prod(f.rows for f in factors)
    cols = prod(f.cols for f in factors)
    if rows * cols > TENSOR_BUDGET:
        dims = " x ".join(f"{f.rows}x{f.cols}" for f in factors) or "(empty)"
        raise SizeError(
            f"assembled size {rows}x{cols} exceeds the budget {TENSOR_BUDGET}: {dims}"
        )
    coords = [(0, 0)]
    for f in factors:
        support = [(i, j) for i, row in enumerate(f.to_rows()) for j, bit in enumerate(row) if bit]
        coords = [
            (r * f.rows + i, c * f.cols + j) for r, c in coords for i, j in support
        ]
    return GF2Matrix.from_triplets(rows, cols, coords)
