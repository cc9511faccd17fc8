"""Combinatorial link diagrams, their smoothings, and circle counts.

A crossing is stored as its two explicit smoothings, each an unordered
pair of unordered pairs of arc-end identifiers.  This deliberately avoids
any sign convention tied to pictures: resolving a smoothing is just
joining arc ends, and circles are the connected components of the joined
arcs.  A diagram is closed when every identifier is used exactly twice
across all crossings; crossingless circle components are carried in a
separate free_loops count.

Every circle count goes through one routine: a call indexes the arc ends
0..m-1 once, stores each crossing's two pairings as index pairs, and
counts the circles of each smoothing it needs with a union-find over a
flat parent list.  Only the public entry points that take a caller's
smoothing validate it.
"""

import json
from dataclasses import dataclass
from itertools import product

from .errors import (
    FormatError,
    PreconditionError,
    SizeError,
    StructureError,
    ValidationError,
    read_json,
    strict_int,
)

SMOOTHING_CAP = 20  # the most crossings whose 2^n smoothings is_height_uniform scans

Pairing = tuple[tuple[int, int], tuple[int, int]]


def _canon_pairing(pairing, what: str) -> Pairing:
    try:
        pairs = [tuple(sorted((strict_int(a, what), strict_int(b, what)))) for a, b in pairing]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be two pairs of integer arc ends") from exc
    if len(pairs) != 2:
        raise FormatError(f"{what} must contain exactly two pairs")
    pairs.sort()
    return (pairs[0], pairs[1])


@dataclass(frozen=True)
class Crossing:
    """One crossing given by its 0-smoothing and 1-smoothing pairings."""

    zero: Pairing
    one: Pairing

    def __post_init__(self):
        zero = _canon_pairing(self.zero, "zero smoothing")
        one = _canon_pairing(self.one, "one smoothing")
        if sorted(zero[0] + zero[1]) != sorted(one[0] + one[1]):
            raise FormatError(
                f"smoothings pair up different arc ends: {zero} vs {one}"
            )
        if zero == one:
            raise FormatError(f"the two smoothings coincide: {zero}")
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    @property
    def ends(self) -> tuple[int, int, int, int]:
        """The four arc-end identifiers, sorted, repeats kept."""
        return tuple(sorted(self.zero[0] + self.zero[1]))

    def pairing(self, smoothing_bit: int) -> Pairing:
        return self.one if smoothing_bit else self.zero


@dataclass(frozen=True)
class LinkDiagram:
    """An ordered list of crossings plus crossingless circle components."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        object.__setattr__(self, "free_loops", strict_int(self.free_loops, "free_loops"))
        if self.free_loops < 0:
            raise ValidationError("free_loops must be nonnegative")
        counts: dict[int, int] = {}
        for c in self.crossings:
            for e in c.ends:
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, k in counts.items() if k != 2)
        if bad:
            raise StructureError(
                f"diagram is not closed: arc end(s) {bad} used other than twice"
            )

    @property
    def n(self) -> int:
        return len(self.crossings)

    def arc_ids(self) -> list[int]:
        ids = set()
        for c in self.crossings:
            ids.update(c.ends)
        return sorted(ids)

    def reordered(self, ordering) -> "LinkDiagram":
        """Same diagram with crossing k taken from original position ordering[k]."""
        from .bruhat import validate_perm

        rho = validate_perm(ordering)
        if len(rho) != self.n:
            raise PreconditionError("reordering length does not match crossing count")
        return LinkDiagram(
            tuple(self.crossings[rho[k] - 1] for k in range(self.n)),
            self.free_loops,
        )


def torus_two_n(n: int) -> LinkDiagram:
    """Closure of the n-fold positive 2-braid generator, crossings bottom to top.

    Arc ids: the left strand above crossing k is 2k-1 and the right strand
    is 2k, with the strands above the top crossing closing around to the
    bottom.  The 0-smoothing keeps the strands parallel; the 1-smoothing
    joins them across.
    """
    n = strict_int(n, "crossing count")
    if n < 1:
        raise ValidationError("a torus diagram needs at least one crossing to order")
    crossings = []
    for k in range(1, n + 1):
        prev = k - 1 if k > 1 else n
        lb, rb = 2 * prev - 1, 2 * prev
        lt, rt = 2 * k - 1, 2 * k
        crossings.append(Crossing(zero=((lb, lt), (rb, rt)), one=((lb, rb), (lt, rt))))
    return LinkDiagram(tuple(crossings))


def disjoint_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """Place b next to a; b's arc ids are shifted clear of a's."""
    shift = max(a.arc_ids(), default=0) - min(b.arc_ids(), default=1) + 1
    moved = tuple(
        Crossing(
            zero=tuple(tuple(e + shift for e in pair) for pair in c.zero),
            one=tuple(tuple(e + shift for e in pair) for pair in c.one),
        )
        for c in b.crossings
    )
    return LinkDiagram(a.crossings + moved, a.free_loops + b.free_loops)


def parse_diagram(text: str) -> LinkDiagram:
    """Read the diagram file format.

    Top-level object with "crossings": a list of objects carrying "zero"
    and "one" pairings as [[a,b],[c,d]], and an optional "free_loops"
    count.  List order is the crossing ordering.
    """
    data = read_json(text, "diagram")
    if not isinstance(data, dict) or "crossings" not in data:
        raise FormatError('diagram file must be an object with a "crossings" list')
    raw = data["crossings"]
    if not isinstance(raw, list):
        raise FormatError('"crossings" must be a list')
    crossings = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "zero" not in entry or "one" not in entry:
            raise FormatError(f'crossing {i} must carry "zero" and "one" pairings')
        crossings.append(Crossing(zero=entry["zero"], one=entry["one"]))
    return LinkDiagram(tuple(crossings), data.get("free_loops", 0))


def format_diagram(d: LinkDiagram) -> str:
    """Serialize in the diagram file format; parses back to an equal diagram."""
    return json.dumps(
        {
            "crossings": [
                {"zero": [list(p) for p in c.zero], "one": [list(p) for p in c.one]}
                for c in d.crossings
            ],
            "free_loops": d.free_loops,
        },
        indent=2,
    )


def _validate_smoothing(d: LinkDiagram, smoothing) -> tuple[int, ...]:
    bits = tuple(strict_int(b, "smoothing entry") for b in smoothing)
    if len(bits) != d.n:
        raise PreconditionError(
            f"smoothing length {len(bits)} does not match crossing count {d.n}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("smoothing entries must be 0 or 1")
    return bits


def _indexed(d: LinkDiagram) -> tuple[list[int], list[tuple]]:
    """The arc ids in order of first use, and per crossing its zero and one
    pairings as pairs of positions in that list."""
    index: dict[int, int] = {}
    for c in d.crossings:
        for e in c.ends:
            index.setdefault(e, len(index))
    pairings = [
        tuple(tuple((index[a], index[b]) for a, b in p) for p in (c.zero, c.one))
        for c in d.crossings
    ]
    return list(index), pairings


def _resolve(m: int, pairings, bits, free_loops: int) -> tuple[int, list[int]]:
    """Circles of a smoothing of m indexed arc ends, plus free_loops, and the
    union-find parent list (path halving) that found them."""
    parent = list(range(m))
    count = m + free_loops
    for crossing, bit in zip(pairings, bits):
        for a, b in crossing[bit]:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                count -= 1
    return count, parent


def circle_count(d: LinkDiagram, smoothing) -> int:
    """Circles of the resolved diagram (plus free loops).

    Union-find over the indexed arc ends, joining the two ends of each pair
    selected by the smoothing.
    """
    bits = _validate_smoothing(d, smoothing)
    ids, pairings = _indexed(d)
    return _resolve(len(ids), pairings, bits, d.free_loops)[0]


def circles(d: LinkDiagram, smoothing) -> list[tuple[int, ...]]:
    """The circles of a smoothing as sorted arc-id groups.

    Ordered by smallest member, which fixes the circle order downstream
    basis indexing refers to.  Free loops are not listed; they only add to
    the count.
    """
    bits = _validate_smoothing(d, smoothing)
    ids, pairings = _indexed(d)
    _, parent = _resolve(len(ids), pairings, bits, 0)
    groups: dict[int, list[int]] = {}
    for i, e in enumerate(ids):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        groups.setdefault(i, []).append(e)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])


def s_vector(d: LinkDiagram) -> tuple[int, ...]:
    """Circle counts s_1..s_n where s_k 1-smooths the first k crossings."""
    if d.n < 1:
        raise PreconditionError("s_vector needs at least one crossing")
    ids, pairings = _indexed(d)
    m, n, loops = len(ids), d.n, d.free_loops
    return tuple(
        _resolve(m, pairings, (1,) * k + (0,) * (n - k), loops)[0] for k in range(1, n + 1)
    )


def is_height_uniform(d: LinkDiagram) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Whether the smoothing height alone determines the circle count.

    Scans all 2^n smoothings, refused past SMOOTHING_CAP crossings.
    Returns (True, None) or (False, witness) where the witness is two
    same-height smoothings with different circle counts.
    """
    if d.n > SMOOTHING_CAP:
        raise SizeError(f"{d.n} crossings means 2^{d.n} smoothings, over the cap {SMOOTHING_CAP}")
    ids, pairings = _indexed(d)
    m = len(ids)
    seen: dict[int, tuple[tuple[int, ...], int]] = {}
    for bits in product((0, 1), repeat=d.n):
        h = sum(bits)
        c = _resolve(m, pairings, bits, d.free_loops)[0]
        if h in seen:
            first, count = seen[h]
            if count != c:
                return False, (first, bits)
        else:
            seen[h] = (bits, c)
    return True, None


def random_diagram(n: int, rng, free_loops: int = 0) -> LinkDiagram:
    """A random closed n-crossing diagram built from a random end matching.

    The 4n crossing ends are matched into 2n arcs; each crossing then gets
    two distinct pairings of its four ends chosen at random.
    """
    n = strict_int(n, "crossing count")
    if n < 1:
        raise ValidationError("need at least one crossing")
    slots = [(k, e) for k in range(n) for e in range(4)]
    rng.shuffle(slots)
    end_ids = [[0] * 4 for _ in range(n)]
    for arc, t in enumerate(range(0, len(slots), 2)):
        for k, e in (slots[t], slots[t + 1]):
            end_ids[k][e] = arc + 1
    crossings = []
    for k in range(n):
        ids = end_ids[k]
        splits = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
        pairings = []
        for (a, b), (c, e) in splits:
            p = _canon_pairing([(ids[a], ids[b]), (ids[c], ids[e])], "pairing")
            if p not in pairings:
                pairings.append(p)
        zero, one = rng.sample(pairings, 2)
        crossings.append(Crossing(zero=zero, one=one))
    return LinkDiagram(tuple(crossings), free_loops)
