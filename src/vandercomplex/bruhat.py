"""The symmetric group S_n with its strong Bruhat order.

Permutations are tuples in one-line notation with entries 1..n.  The rank
of a permutation is its inversion count, and a cover raises the rank by
exactly one via a transposition.  Covers are generated directly from the
one-line interchange criterion: swapping entries p[i] < p[j] with i < j is
a cover exactly when no entry strictly between the two values sits in the
positions between them.

`build_bruhat` builds the poset of each n once per process and hands the
same `BruhatPoset` to every later caller, so the poset and everything
cached on it are read-only: levels and edges are tuples, and `up_covers`
is a read-only mapping.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from types import MappingProxyType

from .errors import PreconditionError, SizeError, ValidationError

Perm = tuple[int, ...]

DEFAULT_N_CAP = 6


def validate_perm(p) -> Perm:
    """Check one-line notation: the entries must be a bijection of 1..n."""
    q = tuple(p)
    n = len(q)
    if sorted(q) != list(range(1, n + 1)):
        raise ValidationError(f"not a permutation of 1..{n}: {q!r}")
    return q


def inversions(p) -> int:
    """Number of pairs i < j with p[i] > p[j]; the Bruhat rank of p."""
    q = validate_perm(p)
    n = len(q)
    return sum(1 for i in range(n) for j in range(i + 1, n) if q[i] > q[j])


def covers(p) -> list[Perm]:
    """All Bruhat covers of p, in lexicographic order."""
    q = validate_perm(p)
    n = len(q)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = q[i], q[j]
            if lo >= hi:
                continue
            if any(lo < q[k] < hi for k in range(i + 1, j)):
                continue
            swapped = list(q)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(tuple(swapped))
    out.sort()
    return out


@dataclass(frozen=True)
class BruhatPoset:
    """Rank levels and cover edges of the strong Bruhat order on S_n.

    levels[k] lists the permutations with k inversions in lexicographic
    order, so downstream basis indexing is reproducible.  cover_edges is
    ordered by (source rank, source, target).
    """

    n: int
    levels: tuple[tuple[Perm, ...], ...]
    cover_edges: tuple[tuple[Perm, Perm], ...]

    @property
    def max_rank(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def up_covers(self) -> MappingProxyType:
        """The covers of each permutation, read from cover_edges, as a
        read-only mapping: the poset is shared by every caller."""
        up: dict[Perm, list[Perm]] = {p: [] for level in self.levels for p in level}
        for p, q in self.cover_edges:
            up[p].append(q)
        return MappingProxyType({p: tuple(qs) for p, qs in up.items()})

    def edges_from_level(self, k: int) -> list[tuple[Perm, Perm]]:
        """Cover edges whose source has rank k."""
        up = self.up_covers
        return [(p, q) for p in self.levels[k] for q in up[p]]


_POSETS: dict[int, BruhatPoset] = {}


def build_bruhat(n: int, cap: int = DEFAULT_N_CAP) -> BruhatPoset:
    """S_n with rank levels and all cover edges, built on first use and
    shared afterwards.

    n is capped (default 6) because the poset has n! elements and the
    downstream complexes grow much faster still.  The cap is checked on
    every call, so a poset built under a larger cap is still refused under
    the default one.  The complex, report and chain-map routes call this
    with the default, so DEFAULT_N_CAP is their n cap; only the summand
    table, which its callers reach after their own check, passes cap=n.
    The refusal names the cap and nothing more, since those routes pass it
    on to callers who cannot raise it.
    """
    if n < 1:
        raise ValidationError(f"group size must be positive, got {n}")
    if n > cap:
        raise SizeError(f"n={n} exceeds the poset cap {cap}")
    poset = _POSETS.get(n)
    if poset is None:
        poset = _POSETS[n] = _generate(n)
    return poset


def _generate(n: int) -> BruhatPoset:
    """S_n with its rank levels and cover edges, generated from scratch."""
    max_rank = n * (n - 1) // 2
    buckets: list[list[Perm]] = [[] for _ in range(max_rank + 1)]
    for q in permutations(range(1, n + 1)):
        buckets[inversions(q)].append(q)
    levels = tuple(tuple(sorted(b)) for b in buckets)
    edges = []
    for level in levels:
        for p in level:
            for q in covers(p):
                edges.append((p, q))
    return BruhatPoset(n=n, levels=levels, cover_edges=tuple(edges))


def length2_middles(poset: BruhatPoset, bottom, top) -> set[Perm]:
    """The middle elements of the interval [bottom, top] of length 2.

    By thinness of the Bruhat order the result always has exactly two
    elements when the pair really is a length-2 interval.
    """
    b = validate_perm(bottom)
    t = validate_perm(top)
    if len(b) != poset.n or len(t) != poset.n:
        raise PreconditionError("permutation size does not match the poset")
    if inversions(t) != inversions(b) + 2:
        raise PreconditionError(
            f"rank difference is {inversions(t) - inversions(b)}, expected 2"
        )
    middles = {m for m in covers(b) if t in covers(m)}
    if not middles:
        raise PreconditionError(f"{b} and {t} are not comparable")
    return middles


def mahonian_distribution(n: int) -> list[int]:
    """Counts of permutations of S_n by inversion number.

    Computed as the coefficient list of prod_{k=1}^{n} (1 + q + ... + q^(k-1)).
    """
    if n < 1:
        raise ValidationError(f"group size must be positive, got {n}")
    coeffs = [1]
    for k in range(2, n + 1):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for d in range(k):
                out[i + d] += c
        coeffs = out
    return coeffs
