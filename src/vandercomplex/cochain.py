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
and pack into bit matrices at the end.

Circle identity across different smoothings is never needed: a changed
color factor depends only on the two circle counts.

The same fact splits the complex into small summands that do not depend
on the colors (see `summands`); verify_euler takes its cohomology from
them, and homology on a built complex is the dense check on that route.
"""

import itertools
from dataclasses import dataclass
from math import prod
from time import perf_counter

from .bruhat import DEFAULT_N_CAP, BruhatPoset, Perm, build_bruhat, inversions, validate_perm
from .errors import ConsistencyError, PreconditionError, SizeError, ValidationError, strict_int
from .gf2 import GF2Matrix
from .linkdiag import DEFAULT_SMOOTHING_CAP, LinkDiagram, is_height_uniform, s_vector
from .summands import homology_dims

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
    mixed-radix place value of digit t.
    """

    radices: tuple[int, ...]
    slices: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]
    significance: tuple[int, ...]
    dim: int

    def position_weights(self, p: int) -> tuple[int, ...]:
        a, b = self.slices[p]
        return self.weights[a:b]

    def position_radix(self, p: int) -> int:
        a, b = self.slices[p]
        return self.radices[a] if b > a else 1

    def digit_count(self, p: int) -> int:
        a, b = self.slices[p]
        return b - a

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
        flat = [0] * len(self.radices)
        for t in self.significance:
            flat[t], index = divmod(index, self.weights[t])
        return tuple(tuple(flat[a:b]) for a, b in self.slices)


def make_layout(per_position_radix, per_position_count, order: str = "standard") -> BlockLayout:
    """Lay out digits position by position; order flips digit significance."""
    radices: list[int] = []
    slices: list[tuple[int, int]] = []
    for radix, count in zip(per_position_radix, per_position_count):
        start = len(radices)
        radices.extend([radix] * count)
        slices.append((start, len(radices)))
    weights = [0] * len(radices)
    acc = 1
    ascending = list(range(len(radices)) if order == "reversed" else reversed(range(len(radices))))
    for t in ascending:
        weights[t] = acc
        acc *= radices[t]
    significance = tuple(reversed(ascending))
    return BlockLayout(tuple(radices), tuple(slices), tuple(weights), significance, acc)


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
    opts = []
    for digits in itertools.product(range(radix), repeat=len(w_in)):
        i = sum(d * w for d, w in zip(digits, w_in))
        o = sum(d * w for d, w in zip(digits, w_out))
        opts.append((i, o))
    return opts


def _cover_pairs(n: int, options) -> list[tuple[int, int]]:
    """Cartesian sum of per-position (input, output) index contributions."""
    pairs = [(0, 0)]
    for p in range(n):
        opts = options[p]
        pairs = [(i + di, o + do) for i, o in pairs for di, do in opts]
    return pairs


def _merge_split_options(src: BlockLayout, tgt: BlockLayout, p: int) -> list[tuple[int, int]]:
    """Contributions of a changed position: constant in, same constant out."""
    radix = src.position_radix(p)
    wi = src.constant_weight(p)
    wo = tgt.constant_weight(p)
    return [(a * wi, a * wo) for a in range(radix)]


def check_budget(dims, budget: int) -> None:
    """Refuse a complex whose total dimension is over the basis budget."""
    total = sum(dims)
    if total > budget:
        raise SizeError(f"total dimension {total} exceeds the budget {budget}")


def build_levels(poset: BruhatPoset, layout_for_perm):
    """Shared level scaffolding: layouts, offsets, and dimensions."""
    layouts: dict[Perm, BlockLayout] = {}
    offsets: dict[Perm, int] = {}
    dims = []
    for level in poset.levels:
        offset = 0
        for p in level:
            layout = layout_for_perm(p)
            layouts[p] = layout
            offsets[p] = offset
            offset += layout.dim
        dims.append(offset)
    return layouts, offsets, tuple(dims)


def build_complex(
    d: LinkDiagram,
    x,
    *,
    budget: int = DEFAULT_DIM_BUDGET,
    n_cap: int = DEFAULT_N_CAP,
    basis_order: str = "standard",
) -> CochainComplex:
    """Assemble the full complex of a diagram and a color vector."""
    xs = validate_colors(x)
    n = d.n
    if len(xs) != n:
        raise PreconditionError(
            f"color vector length {len(xs)} does not match crossing count {n}"
        )
    poset = build_bruhat(n, cap=n_cap)
    s = s_vector(d)

    def layout_for(p: Perm) -> BlockLayout:
        counts = [s[p[i] - 1] for i in range(n)]
        return make_layout(xs, counts, order=basis_order)

    layouts, offsets, dims = build_levels(poset, layout_for)
    check_budget(dims, budget)

    differentials = []
    for k in range(poset.max_rank):
        coords = []
        for src, tgt in poset.edges_from_level(k):
            changed = {p for p in range(n) if src[p] != tgt[p]}
            options = [
                _merge_split_options(layouts[src], layouts[tgt], p)
                if p in changed
                else _identity_options(layouts[src], layouts[tgt], p)
                for p in range(n)
            ]
            c0 = offsets[src]
            r0 = offsets[tgt]
            coords.extend((r0 + o, c0 + i) for i, o in _cover_pairs(n, options))
        differentials.append(GF2Matrix.from_triplets(dims[k + 1], dims[k], coords))

    return CochainComplex(
        n=n,
        level_perms=poset.levels,
        level_dims=dims,
        layouts=layouts,
        block_offsets=offsets,
        differentials=tuple(differentials),
        colors=xs,
        s=s,
    )


def cochain_dims(d: LinkDiagram, x, *, n_cap: int = DEFAULT_N_CAP) -> list[int]:
    """Level dimensions straight from the dimension formula, no matrices."""
    return _level_dims(validate_colors(x), s_vector(d), n_cap)


def _level_dims(xs: ColorVector, s, n_cap: int) -> list[int]:
    """cochain_dims for validated colors and the diagram's s-vector."""
    n = len(s)
    if len(xs) != n:
        raise PreconditionError(
            f"color vector length {len(xs)} does not match crossing count {n}"
        )
    poset = build_bruhat(n, cap=n_cap)
    return [
        sum(prod(xs[i] ** s[p[i] - 1] for i in range(n)) for p in level)
        for level in poset.levels
    ]


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

    The level dimensions come from the counting formula, so no complex is
    built.  Unless skip_homology is set, the cohomology is summed over the
    color-independent summands C(N, j) (see `summands`), each occurring
    prod_{i not in N} x_i * prod_{i in N} (x_i^(s_{j_i}) - x_i) times; the
    summed dimensions must reproduce the counting formula at every level.
    budget caps the total dimension of a complex whose cohomology is asked
    for and is checked before any work; it does not apply with
    skip_homology.
    """
    from .gendet import det_exact, vandermonde_matrix

    t0 = perf_counter()
    xs = validate_colors(x)
    s = s_vector(d)
    dims = _level_dims(xs, s, n_cap)
    hom = None
    if not skip_homology:
        check_budget(dims, budget)
        hom = homology_dims([[xi] + [xi**sj - xi for sj in s] for xi in xs], dims)
    report = HomologyReport(
        n=d.n,
        x=xs,
        s=s,
        cochain_dims=dims,
        homology_dims=hom,
        euler_characteristic=euler_characteristic(dims),
    )
    report.determinant = det_exact(vandermonde_matrix(xs, s))
    report.agree = report.euler_characteristic == report.determinant
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report


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
