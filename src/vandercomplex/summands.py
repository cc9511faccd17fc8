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

`summand_table(n)` holds dim C^k(N, j) and dim H^k(N, j) for every
constraint set of S_n and fills a row the first time a complex needs it;
`homology_dims` sums the rows with their multiplicities.
"""

from itertools import combinations, permutations

import numpy as np

from .bruhat import BruhatPoset, Perm, build_bruhat
from .errors import ConsistencyError, SizeError
from .gf2 import GF2Matrix


class SummandTable:
    """Level dimensions and GF(2) cohomology of every C(N, j) of one S_n.

    Row r is one constraint set: codes[r, i] is the value position i is held
    at, or 0 for a free position.  dims[r, k] and hom[r, k] are dim C^k and
    dim H^k of its complex, valid once filled[r] is set.
    """

    def __init__(self, poset: BruhatPoset):
        n = poset.n
        self.poset = poset
        self.level_of = {p: k for k, level in enumerate(poset.levels) for p in level}
        codes = []
        for size in range(n + 1):
            for positions in combinations(range(n), size):
                for values in permutations(range(1, n + 1), size):
                    code = [0] * n
                    for i, v in zip(positions, values):
                        code[i] = v
                    codes.append(code)
        self.codes = np.array(codes, dtype=np.int8)
        self.dims = np.zeros((len(codes), poset.max_rank + 1), dtype=np.int32)
        self.hom = np.zeros_like(self.dims)
        self.filled = np.zeros(len(codes), dtype=bool)

    def members(self, r: int) -> list[Perm]:
        """The permutations of constraint set r, in lexicographic order."""
        code = self.codes[r].tolist()
        free = [i for i, v in enumerate(code) if v == 0]
        values = sorted(set(range(1, self.poset.n + 1)).difference(code))
        out = []
        for vals in permutations(values):
            p = list(code)
            for i, v in zip(free, vals):
                p[i] = v
            out.append(tuple(p))
        return out

    def fill(self, r: int) -> None:
        """Compute row r: its levels, d^2 = 0, and the rank of each differential."""
        top = self.poset.max_rank
        levels: list[list[Perm]] = [[] for _ in range(top + 1)]
        for p in self.members(r):
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
                    f"summand {self.codes[r].tolist()}: differentials do not square to zero"
                )
            ranks[k] = d.rank()
            below = d
        self.dims[r] = dims
        self.hom[r] = [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1)]
        self.filled[r] = True


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
    the product of its positions' factors times.  cochain_dims are the
    complex's level dimensions from the counting formula: the summed
    summand dimensions must reproduce them, or ConsistencyError is raised.
    """
    total = sum(cochain_dims)
    if total >= 1 << 63:
        raise SizeError(f"total dimension {total} is past the 64-bit range of the summand sums")
    n = len(factors)
    table = summand_table(n)
    # A partial product of factors is at most the multiplicity of the set
    # with the other positions freed, so nothing below exceeds the total.
    f = np.array(factors, dtype=np.int64)
    mult = f[np.arange(n), table.codes].prod(axis=1)
    used = np.flatnonzero(mult)
    for r in used[~table.filled[used]]:
        table.fill(int(r))
    weights = mult[used]
    dims = (weights @ table.dims[used]).tolist()
    hom = (weights @ table.hom[used]).tolist()
    if dims != list(cochain_dims):
        raise ConsistencyError(
            f"summand dimensions {dims} do not reproduce the cochain dimensions {list(cochain_dims)}"
        )
    alternating = sum((-1) ** k * (h - c) for k, (h, c) in enumerate(zip(hom, dims)))
    if alternating or any(not 0 <= h <= c for h, c in zip(hom, dims)):
        raise ConsistencyError(f"summed homology {hom} does not fit the cochain dimensions {dims}")
    return hom
