"""Cohomology from the direct-sum splitting of Bruhat-shaped complexes.

In a link complex every differential block is the identity on unchanged
colors and a connected map of a special Frobenius algebra on the two
changed ones, and a connected map passes only constant colorings (see
`tqft`).  So a differential keeps three things fixed: which positions carry
a nonconstant digit string, those strings, and the constant values of the
other positions.  Call a set N of positions with an injective assignment j
of values to them a constraint set.  The complex is the direct sum, over
constraint sets, of copies of one small complex C(N, j): one basis element
per permutation p with p(i) = j_i for i in N, graded by inversions, whose
differential sends p to the sum of its S_n covers that stay in the set,
which are the covers swapping two positions outside N.  C(N, j) does not
depend on the colors; only its number of copies does, and that is a
product of one factor per position:

- link complexes: x_i for a free position, x_i^(s_j) - x_i (the
  nonconstant strings) for a position i held at value j;
- matrix complexes, in the basis f_0 = e_0, f_a = e_a + e_0 of each factor,
  where unit-after-counit keeps f_0 and kills every f_a: 1 for a free
  position, m[i][j] - 1 for a position i held at column j.

`summand_table(n)` holds dim C^k(N, j) and dim H^k(N, j) of the constraint
sets of S_n, one row per set keyed by its code, and fills a row the first
time a complex needs it.  `homology_dims` walks the constraint sets whose
multiplicity is nonzero and sums their rows with those multiplicities.
Rows and sums are Python integers, so the sums are exact at any size.
"""

from itertools import permutations
from operator import mul

from .bruhat import BruhatPoset, Perm, build_bruhat
from .errors import ConsistencyError
from .gf2 import GF2Matrix

Code = tuple[int, ...]
Row = tuple[tuple[int, ...], tuple[int, ...]]


class SummandTable:
    """Level dimensions and GF(2) cohomology of the C(N, j) of one S_n.

    A constraint set is keyed by its code: code[i] is the value position i
    is held at, or 0 for a free position.  rows[code] is the pair (dim C^k,
    dim H^k) of its complex, as tuples over k, once it has been filled.
    Rows are tuples because the table is shared by every caller.
    """

    def __init__(self, poset: BruhatPoset):
        self.poset = poset
        self.level_of = {p: k for k, level in enumerate(poset.levels) for p in level}
        self.rows: dict[Code, Row] = {}

    def row(self, code: Code) -> Row:
        """The (dims, hom) row of a constraint set, filled on first use."""
        row = self.rows.get(code)
        if row is None:
            row = self.rows[code] = self.fill(code)
        return row

    def members(self, code: Code) -> list[Perm]:
        """The permutations of a constraint set, in lexicographic order."""
        free = [i for i, v in enumerate(code) if v == 0]
        values = sorted(set(range(1, self.poset.n + 1)).difference(code))
        out = []
        for vals in permutations(values):
            p = list(code)
            for i, v in zip(free, vals):
                p[i] = v
            out.append(tuple(p))
        return out

    def fill(self, code: Code) -> Row:
        """Compute a row: its levels, d^2 = 0, and the rank of each differential."""
        top = self.poset.max_rank
        levels: list[list[Perm]] = [[] for _ in range(top + 1)]
        for p in self.members(code):
            levels[self.level_of[p]].append(p)
        position = {p: t for level in levels for t, p in enumerate(level)}
        dims = [len(level) for level in levels]
        up = self.poset.up_covers
        ranks = [0] * (top + 1)
        below = None  # the differential into level k, when both ends are nonempty
        for k in range(top):
            if not (dims[k] and dims[k + 1]):
                below = None
                continue
            coords = [
                (position[q], t)
                for t, p in enumerate(levels[k])
                for q in up[p]
                if q in position
            ]
            d = GF2Matrix.from_triplets(dims[k + 1], dims[k], coords)
            if below is not None and not d.compose_is_zero(below):
                raise ConsistencyError(
                    f"summand {list(code)}: differentials do not square to zero"
                )
            ranks[k] = d.rank()
            below = d
        hom = [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1)]
        return tuple(dims), tuple(hom)


_TABLES: dict[int, SummandTable] = {}


def summand_table(n: int) -> SummandTable:
    """The table of S_n, created on first use and shared afterwards.

    Callers check their own n cap before asking for a table.
    """
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = SummandTable(build_bruhat(n, cap=n))
    return table


def homology_dims(factors, cochain_dims) -> list[int]:
    """Cohomology dimensions of a complex that splits into the C(N, j).

    factors[i][0] is the multiplicity factor of position i when free and
    factors[i][j] its factor when held at value j; a constraint set occurs
    the product of its positions' factors times.  The walk over positions
    keeps a running product and drops a branch at a zero factor or a value
    already held, so only the sets that occur are reached and filled.
    Many sets have equal rows (234 distinct rows among the 13,327 sets of
    S_6), so the multiplicities of equal rows are added first.
    cochain_dims are the complex's level dimensions from the counting
    formula: the summed summand dimensions must reproduce them, or
    ConsistencyError is raised.
    """
    n = len(factors)
    table = summand_table(n)
    # (code, multiplicity, held values as bits); a free position holds no bit
    reached: list[tuple[Code, int, int]] = [((), 1, 0)]
    for factor in factors:
        choices = [(j, f, 1 << j if j else 0) for j, f in enumerate(factor) if f]
        reached = [
            (code + (j,), weight * f, held | bit)
            for code, weight, held in reached
            for j, f, bit in choices
            if not held & bit
        ]
    total: dict[Row, int] = {}
    for code, weight, _ in reached:
        row = table.row(code)
        total[row] = total.get(row, 0) + weight
    weights = list(total.values())
    zero = [0] * (table.poset.max_rank + 1)  # the sums when no set occurs
    dims = [sum(map(mul, weights, column)) for column in zip(*(d for d, _ in total))] or zero
    hom = [sum(map(mul, weights, column)) for column in zip(*(h for _, h in total))] or zero
    if dims != list(cochain_dims):
        raise ConsistencyError(
            f"summand dimensions {dims} do not reproduce the cochain dimensions {list(cochain_dims)}"
        )
    alternating = sum((-1) ** k * (h - c) for k, (h, c) in enumerate(zip(hom, dims)))
    if alternating or any(not 0 <= h <= c for h, c in zip(hom, dims)):
        raise ConsistencyError(f"summed homology {hom} does not fit the cochain dimensions {dims}")
    return hom
