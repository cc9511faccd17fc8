"""Cochain complexes over the Bruhat order from colored smoothings.

Level k collects one block per permutation with k inversions.  The block
for a permutation is the tensor power space with one factor per color,
where color i contributes one algebra factor per circle of the smoothing
that 1-smooths the first pi(i) crossings.  Basis order inside a block is
mixed radix with color factor 1 most significant and circles in a fixed
deterministic order.

A cover edge contributes one block of the differential: identity on the
colors whose smoothing does not change, and the connected merge-split map
on the two colors that do.  Because the connected map only passes
constant colorings through, each basis column has at most one output per
cover edge, so the differentials assemble directly as sparse positions
and pack into bit matrices at the end.  One assembler does this for the
matrix complexes of `gendet` as well, which swap in unit-after-counit, and
the chain maps of `zndiag` are built from the same constant maps.

Every such block is a sum of independent factors, one or two per
position: a factor with k choices j adds j times its input and output
steps to the pair's column and row.  `_block_matrices` expands the factors
of all blocks of a complex or chain map at once with whole-array
operations, and fills every level with one scatter.

Circle identity across different smoothings is never needed: a changed
color factor depends only on the two circle counts.

The same fact splits the complex into small summands that do not depend
on the colors (see `summands`); verify_euler takes its cohomology from
them, and homology on a built complex is the dense check on that route.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .bruhat import DEFAULT_N_CAP, Perm, build_bruhat, inversions, validate_perm
from .errors import ConsistencyError, PreconditionError, SizeError, ValidationError, strict_int
from .gf2 import GF2Matrix, _check_bytes, _from_level_triplets
from .linkdiag import DEFAULT_SMOOTHING_CAP, LinkDiagram, is_height_uniform, s_vector

ColorVector = tuple[int, ...]

DEFAULT_DIM_BUDGET = 10**7


def validate_colors(x) -> ColorVector:
    xs = tuple(strict_int(v, "color") for v in x)
    if not xs or any(v < 1 for v in xs):
        raise ValidationError(f"color vector entries must be positive integers: {x!r}")
    return xs


@dataclass(frozen=True)
class BlockLayout:
    """Digit layout of one permutation block.

    radices[t] is the number of colors available to digit t; slices[p]
    marks the digit range belonging to position p; weights[t] is the
    mixed-radix place value of digit t, the first digit most significant.
    """

    radices: tuple[int, ...]
    slices: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]
    dim: int

    def index_of(self, digits) -> int:
        flat = [d for group in digits for d in group]
        if len(flat) != len(self.radices):
            raise ValidationError("coloring has the wrong number of digits")
        if any(d < 0 or d >= r for d, r in zip(flat, self.radices)):
            raise ValidationError("coloring digit out of range")
        return sum(d * w for d, w in zip(flat, self.weights))

    def digits_of(self, index: int) -> tuple[tuple[int, ...], ...]:
        if index < 0 or index >= self.dim:
            raise ValidationError(f"basis index {index} out of range")
        flat = []
        for w in self.weights:
            d, index = divmod(index, w)
            flat.append(d)
        return tuple(tuple(flat[a:b]) for a, b in self.slices)


def make_layout(per_position_radix, per_position_count) -> BlockLayout:
    """Lay out digits position by position, the last digit least significant."""
    radices: list[int] = []
    slices: list[tuple[int, int]] = []
    for radix, count in zip(per_position_radix, per_position_count):
        start = len(radices)
        radices.extend([radix] * count)
        slices.append((start, len(radices)))
    weights = [0] * len(radices)
    acc = 1
    for t in reversed(range(len(radices))):
        weights[t] = acc
        acc *= radices[t]
    return BlockLayout(tuple(radices), tuple(slices), tuple(weights), acc)


@dataclass(frozen=True)
class BlockPlaces:
    """The block layouts of a complex as arrays, one row per permutation in
    level order and one column per position.

    radix is the radix of the position's digits (1 when it has none), size
    = radix ** digit count its factor of the block dimension, last the
    place value of its last digit and step its constant weight, the index
    step when all its digits move together.
    """

    level: np.ndarray
    offset: np.ndarray
    radix: np.ndarray
    size: np.ndarray
    last: np.ndarray
    step: np.ndarray


def _block_places(levels, offsets: dict, digits: list) -> BlockPlaces:
    """BlockPlaces of the permutations of `levels`; digits lists each one's
    (radix, digit count) per position, in level order."""
    radix = np.array([r for r, _ in digits], dtype=np.int64)
    count = np.array([c for _, c in digits], dtype=np.int64)
    radix[count == 0] = 1
    size = radix**count
    last = np.ones_like(size)
    last[:, :-1] = np.cumprod(size[:, :0:-1], axis=1)[:, ::-1]
    return BlockPlaces(
        level=np.repeat(np.arange(len(levels)), [len(level) for level in levels]),
        offset=np.array([offsets[p] for level in levels for p in level], dtype=np.int64),
        radix=radix,
        size=size,
        last=last,
        step=last * ((size - 1) // np.maximum(radix - 1, 1)),
    )


@dataclass
class CochainComplex:
    """Levels, per-block basis layouts, and packed differentials."""

    n: int
    level_perms: tuple[tuple[Perm, ...], ...]
    level_dims: tuple[int, ...]
    layouts: dict[Perm, BlockLayout]
    block_offsets: dict[Perm, int]
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

    def basis_index(self, perm, coloring) -> tuple[int, int]:
        """Flat (level, index) of a permutation and a 1-based coloring."""
        p = validate_perm(perm)
        layout = self.layouts[p]
        digits = tuple(tuple(c - 1 for c in group) for group in coloring)
        return inversions(p), self.block_offsets[p] + layout.index_of(digits)

    def basis_label(self, level: int, index: int):
        """Inverse of basis_index: the (permutation, coloring) at a flat index."""
        for p in self.level_perms[level]:
            off = self.block_offsets[p]
            if off <= index < off + self.layouts[p].dim:
                digits = self.layouts[p].digits_of(index - off)
                return p, tuple(tuple(c + 1 for c in group) for group in digits)
        raise ValidationError(f"index {index} out of range for level {level}")

    def block(self, source: Perm, target: Perm) -> GF2Matrix:
        """The differential block attached to the cover source < target."""
        k = inversions(source)
        if inversions(target) != k + 1:
            raise PreconditionError("block endpoints must form a cover")
        delta = self.differentials[k]
        c0 = self.block_offsets[source]
        r0 = self.block_offsets[target]
        return delta.submatrix(
            r0, r0 + self.layouts[target].dim, c0, c0 + self.layouts[source].dim
        )

    def verify_d_squared(self) -> bool:
        """Check that consecutive differentials compose to zero."""
        for k in range(len(self.differentials) - 1):
            if not self.differentials[k + 1].compose_is_zero(self.differentials[k]):
                return False
        return True


def _block_matrices(shapes, level, r0, c0, k, mi, mo) -> list[GF2Matrix]:
    """Matrices of the given shapes, assembled from blocks.

    Block b sets, in matrix level[b], the bit at row r0[b] + sum_f j_f mo[b, f]
    and column c0[b] + sum_f j_f mi[b, f] for every choice 0 <= j_f < k[b, f].
    Blocks are grouped by level in ascending order.  Every matrix's packed
    size is checked first; then all blocks expand at once, factor by
    factor, and one scatter fills every matrix.
    """
    for rows, cols in shapes:
        _check_bytes(rows, cols)
    count = k.prod(axis=1)
    block = np.repeat(np.arange(count.size), count)
    t = np.arange(block.size) - np.repeat(np.cumsum(count) - count, count)
    rows, cols = r0[block], c0[block]
    # the last factor varies fastest; a factor with one choice adds nothing
    for f in reversed(np.flatnonzero((k > 1).any(axis=0)).tolist()):
        kf = k[:, f][block]
        j = t % kf
        t //= kf
        rows += j * mo[:, f][block]
        cols += j * mi[:, f][block]
    return _from_level_triplets(shapes, level[block], rows, cols)


def check_budget(dims, budget: int) -> None:
    """Refuse a complex whose total dimension is over the basis budget."""
    total = sum(dims)
    if total > budget:
        raise SizeError(f"total dimension {total} exceeds the budget {budget}")


def _assemble(
    n: int, digits_for, *, merge_split: bool, budget: int, n_cap: int, **fields
) -> CochainComplex:
    """The Bruhat-shaped complex of n positions, for link and matrix complexes alike.

    digits_for(p) gives, per position, the radix and the number of digits
    of the block of permutation p.  A cover edge is the identity on the
    positions it keeps.  On the two it swaps it is the connected map:
    merge-split, constant a in and constant a out, for link complexes, or
    unit-after-counit, constant a in and digit 0 out, for matrix complexes
    (merge_split false).  The basis budget and every differential's packed
    size are checked before any coordinate is built.  fields go to the
    CochainComplex as they are.
    """
    poset = build_bruhat(n, cap=n_cap)
    layouts: dict[Perm, BlockLayout] = {}
    offsets: dict[Perm, int] = {}
    digits = []
    dims = []
    for level in poset.levels:
        offset = 0
        for p in level:
            radices, counts = digits_for(p)
            digits.append((radices, counts))
            layouts[p] = make_layout(radices, counts)
            offsets[p] = offset
            offset += layouts[p].dim
        dims.append(offset)
    check_budget(dims, budget)

    places = _block_places(poset.levels, offsets, digits)
    index = {p: b for b, p in enumerate(layouts)}
    src = np.array([index[p] for p, _ in poset.cover_edges], dtype=np.int64)
    tgt = np.array([index[q] for _, q in poset.cover_edges], dtype=np.int64)
    perms = np.array(list(layouts), dtype=np.int64)
    swapped = perms[src] != perms[tgt]
    out_step = places.step[tgt] if merge_split else 0
    differentials = _block_matrices(
        [(dims[k + 1], dims[k]) for k in range(poset.max_rank)],
        places.level[src],
        places.offset[tgt],
        places.offset[src],
        np.where(swapped, places.radix[src], places.size[src]),
        np.where(swapped, places.step[src], places.last[src]),
        np.where(swapped, out_step, places.last[tgt]),
    )

    return CochainComplex(
        n=n,
        level_perms=poset.levels,
        level_dims=tuple(dims),
        layouts=layouts,
        block_offsets=offsets,
        differentials=tuple(differentials),
        places=places,
        **fields,
    )


def _colors_and_s(d: LinkDiagram, x) -> tuple[ColorVector, tuple[int, ...]]:
    """Validated colors and the diagram's s-vector, one color per crossing."""
    xs = validate_colors(x)
    if len(xs) != d.n:
        raise PreconditionError(
            f"color vector length {len(xs)} does not match crossing count {d.n}"
        )
    return xs, s_vector(d)


def build_complex(
    d: LinkDiagram,
    x,
    *,
    budget: int = DEFAULT_DIM_BUDGET,
    n_cap: int = DEFAULT_N_CAP,
) -> CochainComplex:
    """Assemble the full complex of a diagram and a color vector."""
    xs, s = _colors_and_s(d, x)

    def digits_for(p: Perm):
        return xs, [s[v - 1] for v in p]

    return _assemble(d.n, digits_for, merge_split=True, budget=budget, n_cap=n_cap, colors=xs, s=s)


def _color_grid(xs: ColorVector, s) -> list[list[int]]:
    """The matrix (x_i^(s_j)): its grid dims and determinant are the link complex's."""
    return [[xi**sj for sj in s] for xi in xs]


def cochain_dims(d: LinkDiagram, x, *, n_cap: int = DEFAULT_N_CAP) -> list[int]:
    """Level dimensions straight from the dimension formula, no matrices."""
    from .gendet import _grid_dims

    return _grid_dims(_color_grid(*_colors_and_s(d, x)), n_cap)


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
    """Cohomology dimensions of a built complex by dense elimination.

    dim H^k = dim C^k - rank d^k - rank d^(k-1), with the maps off either
    end treated as zero.  This is the independent check on the summand
    route of verify_euler and matrix_report.
    """
    t0 = perf_counter()
    if not cx.verify_d_squared():
        raise ConsistencyError(
            "differentials do not square to zero; complex construction is broken"
        )
    ranks = [m.rank() for m in cx.differentials]
    top = cx.max_rank
    hom = []
    for k in range(top + 1):
        out_rank = ranks[k] if k < top else 0
        in_rank = ranks[k - 1] if k > 0 else 0
        hom.append(cx.level_dims[k] - out_rank - in_rank)
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
    n_cap: int = DEFAULT_N_CAP,
) -> HomologyReport:
    """Compare the Euler characteristic against the exact determinant.

    The level dimensions and the determinant are those of the matrix
    (x_i^(s_j)).  Unless skip_homology is set, the cohomology is summed over
    the color-independent summands C(N, j) (see `summands`), each occurring
    prod_{i not in N} x_i * prod_{i in N} (x_i^(s_{j_i}) - x_i) times; the
    summed dimensions must reproduce the counting formula at every level.
    budget caps the total dimension of a complex whose cohomology is asked
    for and is checked before any work; it does not apply with
    skip_homology.
    """
    from .gendet import _grid_report

    xs, s = _colors_and_s(d, x)
    grid = _color_grid(xs, s)
    factors = [[xi] + [xi**sj - xi for sj in s] for xi in xs]
    return _grid_report(grid, factors, skip_homology, budget, n_cap, x=xs, s=s)


@dataclass(frozen=True)
class OrderIndependenceResult:
    """Outcome of rebuilding under a crossing reordering.

    height_uniform is None when the 2^n smoothing scan was over its cap.
    For diagrams that are not height uniform, equal is a plain comparison
    with no structural guarantee behind it.
    """

    equal: bool
    height_uniform: bool | None


def order_independence_check(
    d: LinkDiagram,
    x,
    reordering,
    *,
    budget: int = DEFAULT_DIM_BUDGET,
    n_cap: int = DEFAULT_N_CAP,
    smoothing_cap: int = DEFAULT_SMOOTHING_CAP,
) -> OrderIndependenceResult:
    """Rebuild with reordered crossings and compare complexes bit for bit."""
    try:
        uniform, _ = is_height_uniform(d, cap=smoothing_cap)
    except SizeError:
        uniform = None
    base = build_complex(d, x, budget=budget, n_cap=n_cap)
    other = build_complex(d.reordered(reordering), x, budget=budget, n_cap=n_cap)
    equal = base.level_dims == other.level_dims and all(
        a == b for a, b in zip(base.differentials, other.differentials)
    )
    return OrderIndependenceResult(equal=equal, height_uniform=uniform)
