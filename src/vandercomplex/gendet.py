"""Exact integer determinants and Bruhat-shaped complexes for them.

det_exact runs fraction-free elimination in arbitrary precision, so the
result is the exact signed determinant for any size; the permutation
expansion is kept as an independent slow route for cross-checking.

build_matrix_complex replaces each permutation by a tensor product of one
algebra factor per row, the factor for row i having dimension m[i][pi(i)].
A cover edge applies the identity on unchanged factors and the rank-one
map unit-after-counit on the two changed ones, through the same assembler
as the link complexes.  The unit/counit pair here is normalized so that
counit(unit(1)) = 1, which the squaring-to-zero of the differential
requires: the unit picks out the first basis vector and the counit sends
every basis vector to 1.  (The Frobenius-algebra counit and unit from the
tqft module pair to dim mod 2 instead, which breaks commutativity of
mixed-parity diamonds.)

In the basis f_0 = e_0, f_a = e_a + e_0 of each factor, unit-after-counit
keeps f_0 and kills every f_a, so the complex splits into the same
color-independent summands as the link complexes (see `summands`);
matrix_report takes its cohomology from them.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import permutations
from math import prod
from time import perf_counter

from .bruhat import Perm, build_bruhat, inversions
from .cochain import (
    DEFAULT_DIM_BUDGET,
    CochainComplex,
    HomologyReport,
    _assemble,
    check_budget,
    euler_characteristic,
)
from .errors import FormatError, PreconditionError, SizeError, ValidationError, read_json, strict_int, strict_items
from .gf2 import _size
from .summands import homology_dims

EXPANSION_CAP = 12  # the largest n whose n! terms det_permutation_expansion sums


@dataclass(frozen=True)
class PosIntMatrix:
    """A square matrix with positive integer entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _square(self.entries)
        if any(v < 1 for row in rows for v in row):
            raise ValidationError("matrix entries must be positive integers")
        object.__setattr__(self, "entries", tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.entries)


def _square(rows) -> list[list[int]]:
    """rows as a nonempty square grid of ints; a non-iterable matrix or
    row, a non-integer entry or a grid that is not square is refused."""
    rows = strict_items(rows, "matrix", "rows")
    try:
        grid = [[strict_int(v, "matrix entry") for v in row] for row in rows]
    except TypeError:  # name the first row that is not iterable
        i = next((i for i, row in enumerate(rows) if not isinstance(row, Iterable)), None)
        if i is None:
            raise
        raise ValidationError(f"matrix row {i} must be an iterable of entries, got {type(rows[i]).__name__}") from None
    if not grid or any(len(row) != len(grid) for row in grid):
        raise ValidationError("matrix must be square and nonempty")
    return grid


def _int_rows(m) -> list[list[int]]:
    """Accept a PosIntMatrix or any square grid of integers."""
    return list(map(list, m.entries)) if isinstance(m, PosIntMatrix) else _square(m)


def det_exact(m) -> int:
    """Signed determinant by Bareiss fraction-free elimination.

    Accepts a PosIntMatrix or raw integer rows; the positivity constraint
    only matters for complex building, not for the determinant itself.
    """
    a = _int_rows(m)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_permutation_expansion(m) -> int:
    """Signed sum over all permutations; exponential, for cross-checks,
    and refused past EXPANSION_CAP rows."""
    a = _int_rows(m)
    n = len(a)
    if n > EXPANSION_CAP:
        raise SizeError(f"permutation expansion over {n}! terms exceeds the cap {EXPANSION_CAP}")
    total = 0
    for p in permutations(range(n)):
        term = prod(a[i][p[i]] for i in range(n))
        total += term if inversions(tuple(v + 1 for v in p)) % 2 == 0 else -term
    return total


def vandermonde_matrix(x, s) -> PosIntMatrix:
    """The matrix with entry (i, j) equal to x_i to the power s_j."""
    xs = tuple(strict_int(v, "x entry") for v in strict_items(x, "x", "integers"))
    ss = tuple(strict_int(v, "s entry") for v in strict_items(s, "s", "integers"))
    if any(v < 0 for v in ss):
        raise ValidationError(f"s entry must be nonnegative, got {min(ss)}")
    if len(xs) != len(ss):
        raise PreconditionError("x and s must have the same length")
    return PosIntMatrix(tuple(tuple(xi**sj for sj in ss) for xi in xs))


def parse_matrix(text: str) -> PosIntMatrix:
    """Read the matrix file format: an object with a "matrix" row list."""
    data = read_json(text, "matrix")
    if not isinstance(data, dict) or "matrix" not in data:
        raise FormatError('matrix file must be an object with a "matrix" field')
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError('"matrix" must be a list of integer rows')
    return PosIntMatrix(tuple(tuple(rows_i) for rows_i in rows))


def _grid_dims(rows) -> list[int]:
    """Level dimensions of the complex of a grid: sum over p of prod_i rows[i][p(i)-1]."""
    n = len(rows)
    poset = build_bruhat(n)
    return [
        sum(prod(rows[i][p[i] - 1] for i in range(n)) for p in level)
        for level in poset.levels
    ]


def _grid_report(grid, base, skip_homology: bool, budget: int, x=None, s=None) -> HomologyReport:
    """The report body shared by verify_euler and matrix_report.

    budget is read before any work.  Dimensions and determinant are those
    of the grid; the cohomology, unless skipped, is summed over the
    summands C(N, j) once the budget is checked.  Position i's multiplicity
    factor (see `summands`) is base[i] when free and grid[i][j] - base[i]
    when held at column j.  n is capped at `bruhat.N_CAP`.
    """
    t0 = perf_counter()
    budget = strict_int(budget, "budget")
    dims = _grid_dims(grid)
    hom = None
    if not skip_homology:
        check_budget(dims, budget)
        hom = homology_dims([[b] + [v - b for v in row] for b, row in zip(base, grid)], dims)
    euler = euler_characteristic(dims)
    det = det_exact(grid)
    return HomologyReport(
        n=len(grid),
        cochain_dims=dims,
        homology_dims=hom,
        euler_characteristic=euler,
        determinant=det,
        agree=euler == det,
        elapsed_ms=(perf_counter() - t0) * 1000.0,
        x=x,
        s=s,
    )


def build_matrix_complex(m: PosIntMatrix) -> CochainComplex:
    """Bruhat-shaped complex whose Euler characteristic is det(m).

    n is capped at `bruhat.N_CAP` and the total dimension at
    `cochain.DEFAULT_DIM_BUDGET`, both checked before any coordinate is
    built.
    """

    def digits_for(p: Perm):
        return [row[v - 1] for row, v in zip(m.entries, p)], [1] * m.n

    return _assemble(m.n, digits_for, merge_split=False, budget=DEFAULT_DIM_BUDGET)


def matrix_dims(m: PosIntMatrix) -> list[int]:
    """Level dimensions of the matrix complex from the counting formula."""
    return _grid_dims(m.entries)


def matrix_report(
    m: PosIntMatrix,
    *,
    skip_homology: bool = False,
    budget: int = DEFAULT_DIM_BUDGET,
) -> HomologyReport:
    """Compare the matrix complex's Euler characteristic to det(m).

    As in verify_euler, the dimensions come from the counting formula and
    the cohomology, unless skip_homology is set, from the summands C(N, j),
    each occurring prod_{i in N} (m[i][j_i] - 1) times.  budget must be an
    integer, with skip_homology too, and is read before any work; n is
    capped at `bruhat.N_CAP` next.  budget is checked on the total
    dimension after the n·n! counting-formula sum and before the summand
    walk.
    """
    return _grid_report(m.entries, [1] * m.n, skip_homology, budget)


def random_matrix(n: int, max_entry: int, rng) -> PosIntMatrix:
    """Uniform random entries in 1..max_entry; n must be positive and
    max_entry at least 1."""
    n, max_entry = _size(n, "matrix size n"), strict_int(max_entry, "max_entry")
    if n < 1:
        raise ValidationError(f"matrix size n must be positive, got {n}")
    if max_entry < 1:
        raise ValidationError(f"max_entry must be at least 1, got {max_entry}")
    return PosIntMatrix(
        tuple(tuple(rng.randint(1, max_entry) for _ in range(n)) for _ in range(n))
    )
