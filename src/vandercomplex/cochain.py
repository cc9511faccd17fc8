"""Cochain complexes over the Bruhat order from colored smoothings.

Level k collects one block per permutation with k inversions.  The block
for a permutation is the tensor power space with one factor per color,
where color i contributes one algebra factor per circle of the smoothing
that 1-smooths the first pi(i) crossings.  Basis order inside a block is
mixed radix with color factor 1 most significant and circles in a fixed
deterministic order.

A cover edge contributes one block of the differential: identity on the
colors whose smoothing does not change, and the connected merge-split map
on the two colors that do, so each basis column has at most one output
per cover edge.  The matrix complexes of `gendet` swap in
unit-after-counit, and the chain maps of `zndiag` are maps of the same
kind, block b onto block b, with arcs that move, caps and cups.

One factor rule serves all three.  Every block is a sum of independent
factors: a factor with k choices j adds j times its input and output
steps to the pair's column and row.  The callers name each block's
moves, and only `_map_groups` turns them into factors from the two
layouts and groups the blocks that share them; `_checked_groups` checks
every group against its level before anything is built.  Two assemblers
take the groups: `_block_matrices` expands each into positions for the
differentials, `_row_matrices` expands each once into the rows its
blocks share for the chain maps.  The row kernel would build the
differentials with the same bits and as fast, but the benchmark's tests
(`perfbench/tests`) require `from_triplets` calls on the chain-map
workload, which only the position assembler makes.  Building a complex
never imports numpy.

Circle identity across different smoothings is never needed: a changed
color factor depends only on the two circle counts.

The same fact splits the complex into small summands that do not depend
on the colors (see `summands`); verify_euler takes its cohomology from
them, and homology on a built complex is the dense check on that route.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, repeat
from math import prod
from operator import itemgetter, lshift, mul, xor
from time import perf_counter

from .bruhat import Perm, build_bruhat, covers, inversions, validate_n, validate_perm
from .errors import PreconditionError, SizeError, ValidationError, _FULL, _decimal, strict_int, strict_items
from .gf2 import GF2Matrix, _check_bytes, _index, _matrix
from .linkdiag import LinkDiagram, is_height_uniform, s_vector
from .summands import _cohomology

ColorVector = tuple[int, ...]

DEFAULT_DIM_BUDGET = 10**7


def validate_colors(x) -> ColorVector:
    xs = tuple(strict_int(v, "color") for v in strict_items(x, "color vector", "colors"))
    if not xs or any(v < 1 for v in xs):
        shown = repr(x) if all(-_FULL < v < _FULL for v in xs) else f"({', '.join(map(_decimal, xs))})"
        raise ValidationError(f"color vector entries must be positive integers: {shown}")
    return xs


@dataclass(frozen=True)
class BlockPlaces:
    """The block layouts of a complex, one entry per permutation in level
    order: level and offset are ints, and count, radix, size, last and step
    are tuples with one int per position.

    A block's basis is mixed radix: each position has `count` digits of
    the same radix, and the first digit is the most significant.  radix is
    the radix of the position's digits (1 when it has none), size = radix
    ** count its factor of the block dimension, last the place value of its
    last digit and step its constant weight, the index step when all its
    digits move together.  offset is the block's first index in its level.
    """

    level: tuple[int, ...]
    offset: tuple[int, ...]
    count: tuple[tuple[int, ...], ...]
    radix: tuple[tuple[int, ...], ...]
    size: tuple[tuple[int, ...], ...]
    last: tuple[tuple[int, ...], ...]
    step: tuple[tuple[int, ...], ...]


def _block_places(levels, digits_for) -> tuple[BlockPlaces, list[int]]:
    """BlockPlaces of the permutations of `levels`, and each level's
    dimension; digits_for(p) gives, per position, the radix and the number
    of digits of p's block.  Blocks with the same digits share one layout."""
    layouts = {}  # (radices, counts) -> count, radix, size, last, step
    blocks = []
    dims = []
    for k, perms in enumerate(levels):
        start = 0
        for p in perms:
            radices, counts = map(tuple, digits_for(p))
            layout = layouts.get((radices, counts))
            if layout is None:
                rs = tuple([r if c else 1 for r, c in zip(radices, counts)])
                ss = tuple(map(pow, rs, counts))
                ls = tuple(accumulate(ss[:0:-1], mul, initial=1))[::-1]
                steps = tuple([w * ((s - 1) // (r - 1)) if r > 1 else 0 for w, s, r in zip(ls, ss, rs)])
                layout = layouts[radices, counts] = (counts, rs, ss, ls, steps, prod(ss))
            blocks.append((k, start, *layout[:5]))
            start += layout[5]
        dims.append(start)
    return BlockPlaces(*zip(*blocks)), dims


@dataclass
class CochainComplex:
    """Levels, per-block basis layouts, and GF(2) differentials."""

    n: int
    level_perms: tuple[tuple[Perm, ...], ...]
    level_dims: tuple[int, ...]
    differentials: tuple[GF2Matrix, ...]
    places: BlockPlaces
    colors: ColorVector | None = None
    s: tuple[int, ...] | None = None

    @property
    def max_rank(self) -> int:
        return len(self.level_perms) - 1

    @property
    def total_dim(self) -> int:
        return sum(self.level_dims)

    def _row(self, perm) -> tuple[int, int]:
        """The level of a permutation and its row in `places`."""
        p = validate_perm(perm)
        k = inversions(p)
        try:
            return k, sum(map(len, self.level_perms[:k])) + self.level_perms[k].index(p)
        except (IndexError, ValueError):
            raise ValidationError(f"permutation {p} has no block in this complex") from None

    def _span(self, b: int) -> tuple[int, int]:
        """First and past-the-last index of block b in its level."""
        start = self.places.offset[b]
        return start, start + prod(self.places.size[b])

    def _digits(self, b: int) -> list[tuple[int, int, int]]:
        """(radix, place value, position) of each digit of block b, the
        first digit most significant."""
        pl = self.places
        out = []
        for pos, (radix, count, last) in enumerate(zip(pl.radix[b], pl.count[b], pl.last[b])):
            out.extend((radix, last * radix ** (count - 1 - t), pos) for t in range(count))
        return out

    def basis_index(self, perm, coloring) -> tuple[int, int]:
        """Flat (level, index) of a permutation and a 1-based coloring: one
        group per position, of that position's digit count, of ints (no
        bools, no floats) from 1 to the position's radix."""
        k, b = self._row(perm)
        try:
            groups = [tuple(group) for group in coloring]
        except TypeError:
            raise ValidationError(f"coloring {coloring!r} is not one group of digits per position") from None
        counts = list(self.places.count[b])
        if list(map(len, groups)) != counts:
            raise ValidationError(f"coloring has digit counts {list(map(len, groups))}, the block needs {counts}")
        index = self._span(b)[0]
        for c, (radix, weight, pos) in zip(chain.from_iterable(groups), self._digits(b)):
            if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= radix:
                raise ValidationError(f"coloring digit {c!r} at position {pos + 1} is not an int from 1 to {radix}")
            index += (c - 1) * weight
        return k, index

    def basis_label(self, level: int, index: int):
        """Inverse of basis_index: the (permutation, coloring) at a flat index."""
        level = _index(level, len(self.level_perms), "level", "this complex")
        index = _index(index, self.level_dims[level], "index", f"level {level}")
        first = sum(map(len, self.level_perms[:level]))
        b = bisect_right(self.places.offset, index, first, first + len(self.level_perms[level])) - 1
        coloring: list[list[int]] = [[] for _ in range(self.n)]
        rest = index - self.places.offset[b]
        for _, weight, pos in self._digits(b):
            d, rest = divmod(rest, weight)
            coloring[pos].append(d + 1)
        return self.level_perms[level][b - first], tuple(map(tuple, coloring))

    def block(self, source: Perm, target: Perm) -> GF2Matrix:
        """The differential block attached to the cover source < target."""
        if validate_perm(target) not in covers(source):
            raise PreconditionError("block endpoints must form a cover")
        k, b = self._row(source)
        c0, c1 = self._span(b)
        r0, r1 = self._span(self._row(target)[1])
        return self.differentials[k].submatrix(r0, r1, c0, c1)

    def verify_d_squared(self) -> bool:
        """Check that consecutive differentials compose to zero."""
        return all(b.compose_is_zero(a) for a, b in zip(self.differentials, self.differentials[1:]))


def _checked_groups(shapes, groups) -> list[tuple[list[tuple[int, int, int]], int, list]]:
    """The checks both block assemblers run before they build anything.

    shapes and groups are as for `_block_matrices`.  Every matrix's dense
    size is checked against the byte ceiling, every group factor's choices
    and steps, and each block's first and last positions against its own
    matrix.  A group's factors are taken by row step, smallest first, and
    a row step must reach past the rows the smaller ones already span, so
    that a factor's copies of those rows lie end to end.  Returns, per
    group with blocks, its factors with more than one choice as (k, mi,
    mo) in that order, how far its blocks reach down past their first row,
    and its blocks.
    """
    for rows, cols in shapes:
        _check_bytes(rows, cols)
    checked = []
    for ks, mis, mos, blocks in groups:
        down = right = 0  # how far a block reaches past its first row and column
        factors = []
        for kf, i, o in sorted(zip(ks, mis, mos), key=itemgetter(2)):
            if kf != 1:  # a factor with one choice adds nothing
                if (kf - 2 | i | o) < 0 or not i | o:
                    raise ValidationError(f"block factor ({kf}, {i}, {o}) needs k >= 1 and steps >= 0, not both 0")
                if 0 < o <= down:
                    raise ValidationError(
                        f"block factor ({kf}, {i}, {o}) has a row step within the {down + 1} rows "
                        "of the smaller steps, so its copies overlap"
                    )
                down += (kf - 1) * o
                right += (kf - 1) * i
                factors.append((kf, i, o))
        for lv, r, c in blocks:
            rows, cols = shapes[lv]
            if r < 0 or c < 0 or r + down >= rows or c + right >= cols:
                raise ValidationError(
                    f"block from ({r}, {c}) to ({r + down}, {c + right}) is out of range "
                    f"for level {lv}, a {rows}x{cols} matrix"
                )
        if blocks:
            checked.append((factors, down, blocks))
    return checked


def _block_matrices(shapes, groups) -> list[GF2Matrix]:
    """Matrices of the given shapes, assembled from blocks by position.

    groups gives (k, mi, mo, blocks) for the blocks that share factors: a
    block (level, r0, c0) sets, in matrix `level`, the bit at row
    r0 + sum_f j_f mo[f] and column c0 + sum_f j_f mi[f] for every choice
    0 <= j_f < k[f].  Every k is at least 1, and a factor with more than
    one choice has nonnegative steps, not both 0.  After the checks of
    `_checked_groups`, each group's blocks expand together, factor by
    factor, into positions stacked by level, and one `from_triplets` call
    builds every matrix.
    """
    starts = list(accumulate((rows for rows, _ in shapes), initial=0))
    width = max((cols for _, cols in shapes), default=0)
    places = []  # row * width + column in the stacked matrices
    for factors, _, blocks in _checked_groups(shapes, groups):
        firsts = [(starts[lv] + r) * width + c for lv, r, c in blocks]
        for kf, i, o in factors:
            step = o * width + i
            firsts = [q + d for d in range(0, kf * step, step) for q in firsts]
        places += firsts
    pairs = list(map(divmod, places, repeat(width)))
    stacked = GF2Matrix.from_triplets(starts[-1], width, pairs).ints
    return [_matrix(rows, cols, stacked[a:b]) for (rows, cols), a, b in zip(shapes, starts, starts[1:])]


def _row_matrices(shapes, groups) -> list[GF2Matrix]:
    """The matrices of `_block_matrices`, assembled as row ints.

    After the same checks, each group's factors expand once into the rows
    its blocks share, as ints from column 0, in the order the checks give
    them.  The factors with no row step (caps) come first, and each folds
    its column shifts into the one row there is so far.  Each factor with
    a row step then lays its copies of the rows so far end to end, that
    step apart, each shifted right by its column step (a cup, with no
    column step, repeats them as they are); the checks leave no two copies
    overlapping.  Each block lays the rows, shifted to its first column,
    into its matrix from its first row on, in one slice operation: it
    assigns them where those rows are all still zero, and XORs them in
    otherwise, so that, as with `from_triplets`, blocks may overlap and
    repeated positions cancel.  The blocks of a chain map never overlap,
    so they always assign.
    """
    levels = [[0] * rows for rows, _ in shapes]
    for factors, down, blocks in _checked_groups(shapes, groups):
        shared = [1]
        for kf, i, o in factors:
            if o:
                height = len(shared)
                shared += [0] * (o - height)
                shared = [x << s for s in range(0, kf * i, i) for x in shared] if i else shared * kf
                del shared[len(shared) - o + height :]
            else:
                shared = [reduce(xor, map(lshift, repeat(shared[0], kf), range(0, kf * i, i)))]
        for lv, r, c in blocks:
            ints = levels[lv]
            rows = map(lshift, shared, repeat(c))
            segment = ints[r : r + down + 1]
            ints[r : r + down + 1] = map(xor, segment, rows) if any(segment) else rows
    return [_matrix(rows, cols, ints) for (rows, cols), ints in zip(shapes, levels)]


def _map_groups(src: BlockPlaces, tgt: BlockPlaces, blocks) -> list:
    """The groups `_block_matrices` and `_row_matrices` take for a map from
    the complex laid out by src to the one laid out by tgt: blocks gives
    (s, t, moves) per block, block s of src onto block t of tgt.

    A move (i, j) is the connected map from source position i onto target
    position j, or onto digit 0 when j is None; (None, j) is a cup onto j.
    A position no move starts from is the identity.  The factors are
    (size, last, last') for an identity, (radix, step, step' or 0) for a
    connected map and (radix', 0, step') for a cup, primes on tgt.
    """
    groups = {}
    size, radix, last, step = src.size, src.radix, src.last, src.step
    size_t, radix_t, last_t, step_t = tgt.size, tgt.radix, tgt.last, tgt.step
    for s, t, moves in blocks:
        key = (size[s], radix[s], size_t[t], radix_t[t], moves)
        group = groups.get(key)
        if group is None:
            factors = list(zip(size[s], last[s], last_t[t]))
            for i, j in moves:
                if i is None:
                    factors.append((radix_t[t][j], 0, step_t[t][j]))
                else:
                    factors[i] = (radix[s][i], step[s][i], 0 if j is None else step_t[t][j])
            group = groups[key] = (*zip(*factors), [])
        group[3].append((src.level[s], tgt.offset[t], src.offset[s]))
    return list(groups.values())


def check_budget(dims, budget: int) -> None:
    """Refuse a complex whose total dimension is over the basis budget."""
    budget = strict_int(budget, "budget")
    total = sum(dims)
    if total > budget:
        raise SizeError(f"total dimension {_decimal(total)} exceeds the budget {_decimal(budget)}")


def _assemble(n: int, digits_for, *, merge_split: bool, budget: int, **fields) -> CochainComplex:
    """The Bruhat-shaped complex of n positions, for link and matrix complexes alike.

    digits_for(p) gives, per position, the radix and the number of digits
    of the block of permutation p.  A cover edge is the identity on the
    positions it keeps.  On the two it swaps it is the connected map:
    merge-split, the moves (i, i), for link complexes, or
    unit-after-counit, the moves (i, None), for matrix complexes
    (merge_split false).  The poset's n cap (`bruhat.N_CAP`), the
    basis budget and every differential's dense size are checked before
    any coordinate is built.  fields go to the CochainComplex as they are.
    """
    poset = build_bruhat(n)
    places, dims = _block_places(poset.levels, digits_for)
    check_budget(dims, budget)

    index = {p: b for b, p in enumerate(chain.from_iterable(poset.levels))}
    edges = []
    for p, q in poset.cover_edges:
        i, j = [pos for pos in range(n) if p[pos] != q[pos]]
        moves = ((i, i), (j, j)) if merge_split else ((i, None), (j, None))
        edges.append((index[p], index[q], moves))
    shapes = [(dims[k + 1], dims[k]) for k in range(poset.max_rank)]
    differentials = _block_matrices(shapes, _map_groups(places, places, edges))

    return CochainComplex(
        n=n,
        level_perms=poset.levels,
        level_dims=tuple(dims),
        differentials=tuple(differentials),
        places=places,
        **fields,
    )


def _colors_and_s(d: LinkDiagram, x) -> tuple[ColorVector, tuple[int, ...]]:
    """Validated colors, one per crossing, then the n cap, then the diagram's s-vector."""
    xs = validate_colors(x)
    if len(xs) != d.n:
        raise PreconditionError(
            f"color vector length {len(xs)} does not match crossing count {d.n}"
        )
    validate_n(d.n)
    return xs, s_vector(d)


def build_complex(d: LinkDiagram, x, *, budget: int = DEFAULT_DIM_BUDGET) -> CochainComplex:
    """Assemble the full complex of a diagram and a color vector.

    n is capped at `bruhat.N_CAP` and the total dimension at
    budget, both checked before any coordinate is built.
    """
    xs, s = _colors_and_s(d, x)

    def digits_for(p: Perm):
        return xs, [s[v - 1] for v in p]

    return _assemble(d.n, digits_for, merge_split=True, budget=budget, colors=xs, s=s)


def _color_grid(xs: ColorVector, s) -> list[list[int]]:
    """The matrix (x_i^(s_j)): its grid dims and determinant are the link complex's."""
    return [[xi**sj for sj in s] for xi in xs]


def cochain_dims(d: LinkDiagram, x) -> list[int]:
    """Level dimensions straight from the dimension formula, no matrices."""
    from .gendet import _grid_dims

    return _grid_dims(_color_grid(*_colors_and_s(d, x)))


def euler_characteristic(dims) -> int:
    return sum(dim if k % 2 == 0 else -dim for k, dim in enumerate(dims))


@dataclass
class HomologyReport:
    """Dimensions, Euler characteristic, and the determinant comparison."""

    n: int
    x: ColorVector | None
    s: tuple[int, ...] | None
    cochain_dims: list[int]
    homology_dims: list[int] | None
    euler_characteristic: int
    determinant: int | None = None
    agree: bool | None = None
    elapsed_ms: float = 0.0

    @property
    def euler_from_homology(self) -> int | None:
        if self.homology_dims is None:
            return None
        return euler_characteristic(self.homology_dims)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "x": list(self.x) if self.x is not None else None,
            "s": list(self.s) if self.s is not None else None,
            "cochain_dims": list(self.cochain_dims),
            "homology_dims": list(self.homology_dims)
            if self.homology_dims is not None
            else None,
            "euler_characteristic": self.euler_characteristic,
            "euler_characteristic_homology": self.euler_from_homology,
            "determinant": self.determinant,
            "agree": self.agree,
            "elapsed_ms": self.elapsed_ms,
        }


def homology(cx: CochainComplex) -> HomologyReport:
    """Cohomology dimensions of a built complex from the ranks of its
    whole-level differentials.

    dim H^k = dim C^k - rank d^k - rank d^(k-1), with the maps off either
    end treated as zero, after the d² = 0 check; a summand's row is filled
    by the same routine (`summands._cohomology`).  The d² = 0 check composes
    consecutive differentials row by row, stopping at the first nonzero
    row, and each rank inserts a differential's row integers by their
    lowest set bit, so neither builds anything as large as a dense level.
    This is the independent check on the summand route of verify_euler and
    matrix_report.
    """
    t0 = perf_counter()
    hom = _cohomology(cx.level_dims, cx.differentials, "built complex")
    return HomologyReport(
        n=cx.n,
        x=cx.colors,
        s=cx.s,
        cochain_dims=list(cx.level_dims),
        homology_dims=hom,
        euler_characteristic=euler_characteristic(cx.level_dims),
        elapsed_ms=(perf_counter() - t0) * 1000.0,
    )


def verify_euler(
    d: LinkDiagram,
    x,
    *,
    skip_homology: bool = False,
    budget: int = DEFAULT_DIM_BUDGET,
) -> HomologyReport:
    """Compare the Euler characteristic against the exact determinant.

    The level dimensions and the determinant are those of the matrix
    (x_i^(s_j)).  Unless skip_homology is set, the cohomology is summed over
    the color-independent summands C(N, j) (see `summands`), each occurring
    prod_{i not in N} x_i * prod_{i in N} (x_i^(s_{j_i}) - x_i) times; the
    summed dimensions must reproduce the counting formula at every level.
    n is capped at `bruhat.N_CAP` before any work.  budget must be an
    integer, with skip_homology too, and is read before the n·n!
    counting-formula sum; it caps the total dimension of a complex whose
    cohomology is asked for (not with skip_homology), checked after that
    sum, before the summand walk.
    """
    from .gendet import _grid_report

    xs, s = _colors_and_s(d, x)
    return _grid_report(_color_grid(xs, s), xs, skip_homology, budget, x=xs, s=s)


@dataclass(frozen=True)
class OrderIndependenceResult:
    """Outcome of rebuilding under a crossing reordering.

    For diagrams that are not height uniform, equal is a plain comparison
    with no structural guarantee behind it.
    """

    equal: bool
    height_uniform: bool


def order_independence_check(d: LinkDiagram, x, reordering) -> OrderIndependenceResult:
    """Rebuild with reordered crossings and compare complexes bit for bit,
    each build under build_complex's default budget.  The builds refuse n
    past `bruhat.N_CAP` before is_height_uniform scans 2^n smoothings."""
    base = build_complex(d, x)
    other = build_complex(d.reordered(reordering), x)
    equal = base.level_dims == other.level_dims and all(
        a == b for a, b in zip(base.differentials, other.differentials)
    )
    uniform, _ = is_height_uniform(d)
    return OrderIndependenceResult(equal=equal, height_uniform=uniform)
