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
differential sends p to its covers in the set: the swaps of two positions
outside N that raise the inversion count by exactly one.  So a row is
filled from its own members, and this route builds no S_n poset.  C(N, j)
does not depend on the colors; only its number of copies does, and that
is a product of one factor per position, read off the complex's grid g
and a base b by one rule: b_i for a free position, g[i][j] - b_i for a
position i held at column j (`gendet._grid_report`).

- link complexes: g[i][j] = x_i^(s_j) and b_i = x_i, so a held position
  counts the nonconstant strings;
- matrix complexes: g = m and b_i = 1, in the basis f_0 = e_0,
  f_a = e_a + e_0 of each factor, where unit-after-counit keeps f_0 and
  kills every f_a.

`summand_table(n)` holds dim C^k(N, j) and dim H^k(N, j) of the constraint
sets of S_n.  A set is looked up by an integer key, its code's digits in
base n + 1, and the key leads to a row id; equal rows are stored once, so
the 13,327 sets of S_6 share 234 distinct rows.  A row is filled the first
time a complex needs its set.  `homology_dims` walks the constraint sets
whose multiplicity is nonzero, adds each one's multiplicity to its row id,
and sums only the distinct rows it reached, with those weights, so its
cost follows the sets a complex reaches and not the size of the table.
The sum packs each row into one integer, a field per level (Kronecker
substitution), so it is one multiply-add per row, not one per row and
level.  Rows and sums are Python integers, so the sums are exact at any
size.
"""

from itertools import combinations, permutations
from operator import itemgetter

from .bruhat import Perm, inversions, mahonian_distribution, validate_n
from .errors import ConsistencyError
from .gf2 import _matrix

Code = tuple[int, ...]
Row = tuple[tuple[int, ...], tuple[int, ...]]


class SummandTable:
    """Level dimensions and GF(2) cohomology of the C(N, j) of one S_n.

    A constraint set is named by its code: code[i] is the value position i
    is held at, or 0 for a free position.  Its key is the integer whose
    digits in base n + 1 are the code, position 0 most significant.
    ids[key] is the id of its row once filled, and rows[id] the pair
    (dim C^k, dim H^k) as tuples over k; sets with equal rows share one id,
    so rows holds each distinct row once, under the ids 0, 1, ... in
    order.  Rows are tuples because the table is shared by every caller.
    The table knows S_n by n, its maximum rank and its largest level, top,
    alone; it holds nothing per permutation.  No entry of a row exceeds top:
    dim C^k(N, j) counts permutations of S_n at level k.
    """

    def __init__(self, n: int):
        self.n = n
        self.max_rank = n * (n - 1) // 2
        self.top = max(mahonian_distribution(n))
        self.ids: dict[int, int] = {}
        self.rows: dict[int, Row] = {}
        self._interned: dict[Row, int] = {}  # row -> its id
        self._width = 0  # the field width of the packed rows kept
        self._packed: dict[Row, int] = {}  # row -> row packed at _width

    def key(self, code: Code) -> int:
        """The integer key of a code."""
        key = 0
        for v in code:
            key = key * (self.n + 1) + v
        return key

    def code(self, key: int) -> Code:
        """The code of an integer key."""
        digits = []
        for _ in range(self.n):
            key, v = divmod(key, self.n + 1)
            digits.append(v)
        return tuple(reversed(digits))

    def row_id(self, key: int) -> int:
        """The id of a constraint set's row, filling the row on first use."""
        i = self.ids.get(key)
        if i is None:
            row = self.fill(self.code(key))
            i = self.ids[key] = self._interned.setdefault(row, len(self.rows))
            self.rows.setdefault(i, row)
        return i

    def fill(self, code: Code) -> Row:
        """Compute a row: its levels, d^2 = 0, and the rank of each differential.

        The members are graded by inversions, in lexicographic order within
        a level, and a member at level k is covered in the set by each swap
        of two free positions that lands at level k + 1.
        """
        free = [i for i, v in enumerate(code) if v == 0]
        order = range(self.n)
        # one getter per pair of free positions a < b, swapping the two
        swaps = [itemgetter(*order[:a], b, *order[a + 1 : b], a, *order[b + 1 :]) for a, b in combinations(free, 2)]
        levels: list[list[Perm]] = [[] for _ in range(self.max_rank + 1)]
        place = {}  # member -> (its level, its index there)
        member = list(code)
        for values in permutations(sorted(set(range(1, self.n + 1)).difference(code))):
            for i, v in zip(free, values):
                member[i] = v
            p = tuple(member)
            k = inversions(p)
            place[p] = k, len(levels[k])
            levels[k].append(p)
        dims = [len(level) for level in levels]
        # the levels lo .. hi - 1 hold every member; H is zero outside them
        held = [k for k, dim in enumerate(dims) if dim]
        lo, hi = held[0], held[-1] + 1
        differentials = []
        for k in range(lo, hi - 1):
            ints = [0] * dims[k + 1]
            for t, p in enumerate(levels[k]):
                for swap in swaps:
                    up, row = place[swap(p)]
                    if up == k + 1:
                        ints[row] |= 1 << t
            differentials.append(_matrix(dims[k + 1], dims[k], ints))
        hom = _cohomology(dims[lo:hi], differentials, f"summand {list(code)}")
        return tuple(dims), (0,) * lo + tuple(hom) + (0,) * (len(dims) - hi)

    def level_sums(self, weights: dict[int, int]) -> tuple[list[int], list[int]]:
        """dim C^k and dim H^k summed over the rows with the given ids, each
        row weighted by its multiplicity weights[id], for every level k.

        Kronecker substitution: a row is packed into one integer, dim C^k in
        field k and dim H^k in field max_rank + 1 + k, each field width bits
        wide, so one multiply-add per row sums every level at once.  No
        entry exceeds top (`_pack` checks it), so no field of the sum
        exceeds sum(weights) * top, and width is the multiple of 64 that
        holds that bound: no field carries into the next.  Packed rows are
        kept for the width of the last call only, so huge colors, whose
        widths vary, cannot pile up rows, and keyed by row value, so a row
        replaced in rows is packed, and checked, afresh.  The bound holds
        for multiplicities of 0 or more only, so a negative one is refused.
        """
        if min(weights.values(), default=0) < 0:
            raise ConsistencyError(f"summand multiplicities {list(weights.values())} include a negative one")
        width = -(-(sum(weights.values()) * self.top).bit_length() // 64) * 64
        if width != self._width:
            self._width, self._packed = width, {}
        cache = self._packed
        rows = self.rows
        total = 0
        for i, weight in weights.items():
            row = rows[i]
            packed = cache.get(row)
            if packed is None:
                packed = cache[row] = self._pack(row, width)
            total += weight * packed
        mask = (1 << width) - 1
        size = self.max_rank + 1
        fields = [total >> (k * width) & mask for k in range(2 * size)]
        return fields[:size], fields[size:]

    def _pack(self, row: Row, width: int) -> int:
        """A row as one integer of fields width bits wide, once its entries
        are checked: every dim C^k in 0 .. top and every dim H^k in
        0 .. dim C^k, so that no entry can carry into the next field."""
        dims, hom = row
        if not all(0 <= c <= self.top for c in dims):
            raise ConsistencyError(
                f"summand dimensions {list(dims)} do not reproduce any complex: an entry lies "
                f"outside 0 .. {self.top}, the largest level of S_{self.n}"
            )
        if not all(0 <= h <= c for h, c in zip(hom, dims)):
            raise ConsistencyError(
                f"summand homology {list(hom)} does not fit the summand dimensions {list(dims)}"
            )
        packed = 0
        for entry in reversed(dims + hom):
            packed = packed << width | entry
        return packed


def _cohomology(dims, differentials, where: str) -> list[int]:
    """dim H^k = dim C^k - rank d^k - rank d^(k-1) of the complex with level
    dimensions dims and differentials d^k from level k to level k + 1, the
    maps off either end being zero.  Consecutive differentials are first
    checked to compose to zero; where names the complex if they do not.
    """
    if not all(b.compose_is_zero(a) for a, b in zip(differentials, differentials[1:])):
        raise ConsistencyError(f"{where}: differentials do not square to zero")
    ranks = [0, *(d.rank() for d in differentials), 0]  # ranks[k] is rank d^(k-1)
    return [dim - ranks[k] - ranks[k + 1] for k, dim in enumerate(dims)]


_TABLES: dict[int, SummandTable] = {}


def summand_table(n: int) -> SummandTable:
    """The table of S_n, created on first use and shared afterwards; n is
    checked by `bruhat.validate_n`.
    """
    n = validate_n(n)
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = SummandTable(n)
    return table


def homology_dims(factors, cochain_dims) -> list[int]:
    """Cohomology dimensions of a complex that splits into the C(N, j).

    factors[i][0] is the multiplicity factor of position i when free and
    factors[i][j] its factor when held at value j; a constraint set occurs
    the product of its positions' factors times.  The walk over positions
    keeps a running product and drops a branch at a zero factor or a value
    already held, so only the sets that occur are reached and filled.
    Each set is carried as its integer key.  Positions 0 .. n - 2 are
    walked level by level; the last one is folded into a single pass that
    looks each key up in the table's ids, decoding and filling it only on
    a miss, and adds its multiplicity to its row id.  Only the distinct
    rows reached are summed, each once (a call often reaches fewer than
    20 of the 234 distinct rows of S_6), all levels at once by
    `SummandTable.level_sums`.
    cochain_dims are the complex's level dimensions from the counting
    formula: the summed summand dimensions must reproduce them, or
    ConsistencyError is raised.
    """
    n = len(factors)
    table = summand_table(n)
    # per position, (value, factor, value as a bit) of its nonzero factors;
    # a free position holds no bit
    *choices, last = [
        [(j, f, 1 << j if j else 0) for j, f in enumerate(factor) if f] for factor in factors
    ]
    # (key, multiplicity, held values as bits) over positions 0 .. n - 2
    reached: list[tuple[int, int, int]] = [(0, 1, 0)]
    for position in choices:
        reached = [
            (key * (n + 1) + j, weight * f, held | bit)
            for key, weight, held in reached
            for j, f, bit in position
            if not held & bit
        ]
    ids = table.ids
    weights: dict[int, int] = {}  # row id -> summed multiplicity, in the order reached
    for key, weight, held in reached:
        key *= n + 1
        for j, f, bit in last:
            if not held & bit:
                i = ids.get(key + j)
                if i is None:
                    i = table.row_id(key + j)
                weights[i] = weights.get(i, 0) + weight * f
    dims, hom = table.level_sums(weights)
    if dims != list(cochain_dims):
        raise ConsistencyError(
            f"summand dimensions {dims} do not reproduce the cochain dimensions {list(cochain_dims)}"
        )
    alternating = sum((-1) ** k * (h - c) for k, (h, c) in enumerate(zip(hom, dims)))
    if alternating or any(not 0 <= h <= c for h, c in zip(hom, dims)):
        raise ConsistencyError(f"summed homology {hom} does not fit the cochain dimensions {dims}")
    return hom
