"""Strip diagrams between color vectors and their induced chain maps.

A morphism from one color vector to another is a partial matching of
positions by arcs (source index at most target index, equal colors at the
two ends) plus a multiset of labeled dots.  Isotopy classes are carried
entirely by the arc set and the dot multiset, so that is all we store.

On a fixed link diagram every morphism induces, block by block over the
Bruhat order, a linear map between the complexes of its two color
vectors: arcs between equal positions act as the identity, arcs between
different positions as the full merge-split, an unmatched source position
is capped off (merges then counit), an unmatched target position is
filled in (unit then splits), and each dot contributes its sphere value,
the dot color mod 2.

A chain map reads each factor's choices and steps from the block layouts
of the two complexes, like a differential, but is assembled by row
(`cochain._row_matrices`): block b of one complex faces block b of the
other, and the rows of a block are shifts of one pattern, the caps'
column shifts folded into it by XOR and repeated down the rows by the
arcs and cups.

Composition concatenates arcs through shared middle points.  A middle
point matched on neither side leaves a closed cap-cup component behind;
it is recorded as a dot of that point's color, which is exactly what
makes the induced maps compose on the nose.
"""

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .cochain import (
    CochainComplex,
    _row_matrices,
    build_complex,
    validate_colors,
)
from .errors import (
    CompositionError,
    ConsistencyError,
    FormatError,
    MembershipError,
    PreconditionError,
    ValidationError,
    read_json,
    strict_int,
)
from .gf2 import GF2Matrix, QuotientSpace, reduce_columns
from .linkdiag import LinkDiagram


def _arc(arc) -> tuple[int, int]:
    try:
        i, j = arc
    except (TypeError, ValueError):
        raise ValidationError(f"arc {arc!r} must be a pair of positions") from None
    return strict_int(i, "arc endpoint"), strict_int(j, "arc endpoint")


@dataclass(frozen=True)
class ZndiagMorphism:
    """A strip diagram: arcs as a partial matching plus labeled dots."""

    source: tuple[int, ...]
    target: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...] = ()
    dots: tuple[int, ...] = ()

    def __post_init__(self):
        src = validate_colors(self.source)
        tgt = validate_colors(self.target)
        if len(src) != len(tgt):
            raise ValidationError(
                "source and target color vectors must have the same length"
            )
        n = len(src)
        arcs = tuple(sorted(_arc(a) for a in self.arcs))
        seen_src: set[int] = set()
        seen_tgt: set[int] = set()
        for i, j in arcs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"arc ({i},{j}) endpoint out of range 1..{n}")
            if i > j:
                raise ValidationError(
                    f"arc ({i},{j}) must run weakly rightward (source index <= target index)"
                )
            if src[i - 1] != tgt[j - 1]:
                raise ValidationError(
                    f"arc ({i},{j}) joins colors {src[i - 1]} and {tgt[j - 1]}"
                )
            if i in seen_src or j in seen_tgt:
                raise ValidationError(f"arc ({i},{j}) reuses a matched endpoint")
            seen_src.add(i)
            seen_tgt.add(j)
        dots = tuple(sorted(strict_int(c, "dot color") for c in self.dots))
        if any(c < 1 for c in dots):
            raise ValidationError("dot colors must be positive integers")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "dots", dots)

    @property
    def n(self) -> int:
        return len(self.source)

    def arc_by_source(self) -> dict[int, int]:
        return {i: j for i, j in self.arcs}

    def arc_by_target(self) -> dict[int, int]:
        return {j: i for i, j in self.arcs}

    def sphere_factor(self) -> int:
        """The scalar all dots contribute: product of colors mod 2."""
        return int(all(c % 2 for c in self.dots))


def validate_morphism(m: ZndiagMorphism) -> ZndiagMorphism:
    """Re-run the constructor checks; returns the canonicalized morphism."""
    return ZndiagMorphism(m.source, m.target, m.arcs, m.dots)


def _checked(source, target, arcs, dots) -> ZndiagMorphism:
    """A morphism from parts that already pass the constructor's checks,
    arcs and dots sorted, without running them again."""
    m = object.__new__(ZndiagMorphism)
    for name, value in zip(("source", "target", "arcs", "dots"), (source, target, arcs, dots)):
        object.__setattr__(m, name, value)
    return m


def identity_morphism(x) -> ZndiagMorphism:
    xs = validate_colors(x)
    return _checked(xs, xs, tuple((i, i) for i in range(1, len(xs) + 1)), ())


def compose(a: ZndiagMorphism, b: ZndiagMorphism) -> ZndiagMorphism:
    """Concatenate a then b (diagrammatic order, a's target is b's source).

    Arcs chain through the middle; a middle point matched on neither side
    becomes a dot of its color.  The result needs no checks: its arcs,
    sorted by source like a's, run weakly rightward through the middle and
    join equal colors.
    """
    if a.target != b.source:
        raise CompositionError(
            f"cannot compose: middle vectors differ, {a.target} vs {b.source}"
        )
    a_by_tgt = a.arc_by_target()
    b_by_src = b.arc_by_source()
    arcs = tuple(
        (i, b_by_src[j]) for i, j in a.arcs if j in b_by_src
    )
    closed = tuple(
        a.target[j - 1]
        for j in range(1, a.n + 1)
        if j not in a_by_tgt and j not in b_by_src
    )
    return _checked(a.source, b.target, arcs, tuple(sorted(a.dots + b.dots + closed)))


def parse_morphism(text: str) -> ZndiagMorphism:
    """Read the morphism file format: source, target, arcs, dots."""
    data = read_json(text, "morphism")
    if not isinstance(data, dict) or "source" not in data or "target" not in data:
        raise FormatError('morphism file must carry "source" and "target" lists')
    fields = [data["source"], data["target"], data.get("arcs", []), data.get("dots", [])]
    if not all(isinstance(f, list) for f in fields):
        raise FormatError('"source", "target", "arcs" and "dots" must be lists')
    return ZndiagMorphism(*(tuple(f) for f in fields))


@dataclass
class ChainMap:
    """Per-level matrices between the complexes of two color vectors."""

    morphism: ZndiagMorphism
    source: CochainComplex
    target: CochainComplex
    blocks: tuple[GF2Matrix, ...]

    def commutes(self) -> bool:
        """Whether the map intertwines the two differentials at every level."""
        for k in range(len(self.source.differentials)):
            lhs = self.target.differentials[k] @ self.blocks[k]
            rhs = self.blocks[k + 1] @ self.source.differentials[k]
            if lhs != rhs:
                return False
        return True


def chain_map(
    d: LinkDiagram,
    m: ZndiagMorphism,
    *,
    source_complex: CochainComplex | None = None,
    target_complex: CochainComplex | None = None,
) -> ChainMap:
    """Assemble the per-level matrices induced by a strip diagram.

    An endomorphism without a prebuilt target maps the source complex to
    itself.  A complex that is not prebuilt is built by build_complex under
    its default budget (n is capped at `bruhat.N_CAP`); pass prebuilt
    complexes to build under another budget.
    """
    if m.n != d.n:
        raise PreconditionError(
            f"morphism is between vectors of length {m.n}, diagram has {d.n} crossings"
        )
    cx = source_complex or build_complex(d, m.source)
    if target_complex is None and m.target == m.source:
        target_complex = cx
    cy = target_complex or build_complex(d, m.target)
    if cx.colors != m.source or cy.colors != m.target:
        raise PreconditionError("prebuilt complexes do not match the morphism ends")
    if cx.s != cy.s:
        raise PreconditionError("prebuilt complexes come from diagrams with different circle counts")

    shapes = list(zip(cy.level_dims, cx.level_dims))
    if not m.sphere_factor():  # an even dot kills every block
        zeros = tuple(GF2Matrix(r, c) for r, c in shapes)
        return ChainMap(morphism=m, source=cx, target=cy, blocks=zeros)
    # One factor per source position (the identity on an arc that stays
    # put, the connected map onto another target position or a cap), and a
    # cup per unmatched target position.  Block b of one complex faces
    # block b of the other.  Every block of a link complex has the colors
    # as its radices, so its layout, and with it the factors here, depend
    # only on its digit counts.  The factors' k, then mi, then mo are picked
    # by index from one tuple per layout: the source's size, radix, last
    # and step, the target's radix, last and step, and a zero.
    px, py = cx.places, cy.places
    sx, rx, lx, stx, ry, ly, sty, zero = range(0, 8 * m.n, m.n)
    by_src, by_tgt = m.arc_by_source(), m.arc_by_target()
    picks = []
    for pos in range(m.n):
        j = by_src.get(pos + 1)
        if j == pos + 1:
            picks.append((sx + pos, lx + pos, ly + pos))
        else:
            picks.append((rx + pos, stx + pos, sty + j - 1 if j else zero))
    picks += [(ry + pos, zero, sty + pos) for pos in range(m.n) if pos + 1 not in by_tgt]
    pick, f = itemgetter(*chain.from_iterable(zip(*picks))), len(picks)
    groups = {}
    for b, (counts, lv, r, c) in enumerate(zip(px.count, px.level, py.offset, px.offset)):
        group = groups.get(counts)
        if group is None:
            layouts = (px.size[b], px.radix[b], px.last[b], px.step[b], py.radix[b], py.last[b], py.step[b])
            factors = pick(sum(layouts, ()) + (0,))
            group = groups[counts] = (factors[:f], factors[f : 2 * f], factors[2 * f :], [])
        group[3].append((lv, r, c))
    levels = _row_matrices(shapes, groups.values())
    return ChainMap(morphism=m, source=cx, target=cy, blocks=tuple(levels))


def cohomology_quotients(cx: CochainComplex) -> list[QuotientSpace]:
    """Cycle-mod-boundary coordinate systems, one per level.

    Each differential is reduced once: the columns of d^k that vanish give
    the cycles of level k, and the columns it stores are the boundary table
    of level k+1.  Expensive relative to a single chain map, so callers
    comparing many morphisms over the same complex should build these once
    and pass them to induced_map_from.
    """
    out = []
    table: dict[int, int] = {}
    for k, n in enumerate(cx.level_dims):
        if k < cx.max_rank:
            cycles, next_table = reduce_columns(cx.differentials[k])
        else:
            cycles, next_table = [1 << j for j in range(n)], {}
        out.append(QuotientSpace(cycles, table, n))
        table = next_table
    return out


def _check_quotients(quotients: list[QuotientSpace], cx: CochainComplex, side: str) -> None:
    """One quotient per level of cx, each on vectors of that level's dimension."""
    levels = len(cx.level_dims)
    if len(quotients) != levels:
        raise PreconditionError(
            f"level {min(len(quotients), levels)}: {len(quotients)} {side} quotients for {levels} levels"
        )
    for k, (q, dim) in enumerate(zip(quotients, cx.level_dims)):
        if q.n != dim:
            raise PreconditionError(
                f"level {k}: the {side} quotient is on vectors of length {q.n}, "
                f"the level has dimension {dim}"
            )


def induced_map_from(
    cm: ChainMap,
    source_quotients: list[QuotientSpace] | None = None,
    target_quotients: list[QuotientSpace] | None = None,
) -> list[GF2Matrix]:
    """Matrices on cohomology in the deterministic quotient bases.

    Per level, one product maps every source representative at once, and
    the target quotient reads off all their coordinates together; a level
    whose source cohomology is zero needs neither.  An endomorphism's
    target quotients are its source quotients.
    """
    qx = cohomology_quotients(cm.source) if source_quotients is None else source_quotients
    if target_quotients is None:
        target_quotients = qx if cm.target is cm.source else cohomology_quotients(cm.target)
    qy = target_quotients
    _check_quotients(qx, cm.source, "source")
    _check_quotients(qy, cm.target, "target")
    out = []
    for k in range(cm.source.max_rank + 1):
        if not qx[k].dim:
            out.append(GF2Matrix(qy[k].dim, 0))
            continue
        try:
            out.append(qy[k].coordinates(cm.blocks[k] @ qx[k].representatives))
        except MembershipError as exc:
            raise ConsistencyError(
                f"level {k}: a cycle image left the target cycle space, "
                "so the map is not a chain map"
            ) from exc
    return out


def induced_cohomology_map(d: LinkDiagram, m: ZndiagMorphism) -> list[GF2Matrix]:
    """Chain map under the default budget, commutation check, then the
    induced maps on cohomology."""
    cm = chain_map(d, m)
    if not cm.commutes():
        raise ConsistencyError("chain map does not commute with the differentials")
    return induced_map_from(cm)


def random_morphism(rng, source, target, dot_colors=(1, 2, 3)) -> ZndiagMorphism:
    """A random valid morphism between two given color vectors."""
    src = validate_colors(source)
    tgt = validate_colors(target)
    n = len(src)
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if src[i - 1] == tgt[j - 1]
    ]
    rng.shuffle(candidates)
    arcs = []
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    for i, j in candidates:
        if i in used_src or j in used_tgt or rng.random() < 0.3:
            continue
        arcs.append((i, j))
        used_src.add(i)
        used_tgt.add(j)
    dots = tuple(rng.choice(dot_colors) for _ in range(rng.randrange(3)))
    return ZndiagMorphism(src, tgt, tuple(arcs), dots)
