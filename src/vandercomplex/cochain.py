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

Circle identity across different smoothings is never needed: a changed
color factor depends only on the two circle counts.

The same fact splits the complex into small summands that do not depend
on the colors (see `summands`); verify_euler takes its cohomology from
them, and homology on a built complex is the dense check on that route.
"""

from dataclasses import dataclass
from time import perf_counter

from .bruhat import DEFAULT_N_CAP, Perm, build_bruhat, inversions, validate_perm
from .errors import ConsistencyError, PreconditionError, SizeError, ValidationError, strict_int
from .gf2 import GF2Matrix, _check_bytes
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

    def position_weights(self, p: int) -> tuple[int, ...]:
        a, b = self.slices[p]
        return self.weights[a:b]

    def position_radix(self, p: int) -> int:
        a, b = self.slices[p]
        return self.radices[a] if b > a else 1

    def constant_weight(self, p: int) -> int:
        """Index step when all of position p's digits move together."""
        return sum(self.position_weights(p))

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


@dataclass
class CochainComplex:
    """Levels, per-block basis layouts, and packed differentials."""

    n: int
    level_perms: tuple[tuple[Perm, ...], ...]
    level_dims: tuple[int, ...]
    layouts: dict[Perm, BlockLayout]
    block_offsets: dict[Perm, int]
    differentials: tuple[GF2Matrix, ...]
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


def _identity_options(src: BlockLayout, tgt: BlockLayout, p: int) -> list[tuple[int, int]]:
    """Index contributions of position p when its digits pass through unchanged."""
    w_in = src.position_weights(p)
    w_out = tgt.position_weights(p)
    assert len(w_in) == len(w_out), "identity factor with mismatched digit counts"
    radix = src.position_radix(p)
    return _cover_pairs(_constant_options(radix, wi, wo) for wi, wo in zip(w_in, w_out))


def _constant_options(radix: int, w_in: int, w_out: int) -> list[tuple[int, int]]:
    """Index contributions of a connected map: constant a in, constant a out.

    A zero weight drops that side: (w, 0) is a cap, or unit-after-counit
    sending every digit to digit 0, and (0, w) is a cup.
    """
    return [(a * w_in, a * w_out) for a in range(radix)]


def _cover_pairs(factors) -> list[tuple[int, int]]:
    """Cartesian sum of per-factor (input, output) index contributions."""
    pairs = [(0, 0)]
    for opts in factors:
        pairs = [(i + di, o + do) for i, o in pairs for di, do in opts]
    return pairs


def check_budget(dims, budget: int) -> None:
    """Refuse a complex whose total dimension is over the basis budget."""
    total = sum(dims)
    if total > budget:
        raise SizeError(f"total dimension {total} exceeds the budget {budget}")


def _assemble(
    n: int, layout_for, changed, *, budget: int, n_cap: int, **fields
) -> CochainComplex:
    """The Bruhat-shaped complex of n positions, for link and matrix complexes alike.

    layout_for(p) lays out the block of permutation p.  A cover edge is the
    identity on the positions it keeps and changed(src_layout, tgt_layout, p)
    on the two it swaps.  The basis budget and every differential's packed
    size are checked before any coordinate is built.  fields go to the
    CochainComplex as they are.
    """
    poset = build_bruhat(n, cap=n_cap)
    layouts: dict[Perm, BlockLayout] = {}
    offsets: dict[Perm, int] = {}
    dims = []
    for level in poset.levels:
        offset = 0
        for p in level:
            layouts[p] = layout_for(p)
            offsets[p] = offset
            offset += layouts[p].dim
        dims.append(offset)
    check_budget(dims, budget)
    for k in range(poset.max_rank):
        _check_bytes(dims[k + 1], dims[k])

    differentials = []
    for k in range(poset.max_rank):
        coords = []
        for src, tgt in poset.edges_from_level(k):
            ls, lt = layouts[src], layouts[tgt]
            factors = [
                changed(ls, lt, p) if src[p] != tgt[p] else _identity_options(ls, lt, p)
                for p in range(n)
            ]
            c0 = offsets[src]
            r0 = offsets[tgt]
            coords.extend((r0 + o, c0 + i) for i, o in _cover_pairs(factors))
        differentials.append(GF2Matrix.from_triplets(dims[k + 1], dims[k], coords))

    return CochainComplex(
        n=n,
        level_perms=poset.levels,
        level_dims=tuple(dims),
        layouts=layouts,
        block_offsets=offsets,
        differentials=tuple(differentials),
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

    def layout_for(p: Perm) -> BlockLayout:
        return make_layout(xs, [s[v - 1] for v in p])

    def merge_split(src: BlockLayout, tgt: BlockLayout, p: int):
        w_in, w_out = src.constant_weight(p), tgt.constant_weight(p)
        return _constant_options(src.position_radix(p), w_in, w_out)

    return _assemble(d.n, layout_for, merge_split, budget=budget, n_cap=n_cap, colors=xs, s=s)


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
