"""The symmetric group S_n with its strong Bruhat order.

Permutations are tuples in one-line notation with entries 1..n.  The rank
of a permutation is its inversion count, and a cover raises the rank by
exactly one via a transposition.  Covers are generated directly from the
one-line interchange criterion: swapping entries p[i] < p[j] with i < j is
a cover exactly when no entry strictly between the two values sits in the
positions between them.

`build_bruhat` builds the poset of each n once per process and hands the
same `BruhatPoset` to every later caller, so the poset is read-only: its
levels and edges are tuples.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, starmap
from operator import gt

from .errors import PreconditionError, SizeError, ValidationError, strict_int

Perm = tuple[int, ...]

N_CAP = 6


def validate_perm(p) -> Perm:
    """Check one-line notation: the entries must be a bijection of 1..n."""
    q = tuple(p)
    n = len(q)
    if sorted(q) != list(range(1, n + 1)):
        raise ValidationError(f"not a permutation of 1..{n}: {q!r}")
    return q


def inversions(p) -> int:
    """Number of pairs i < j with p[i] > p[j]; the Bruhat rank of p."""
    return sum(starmap(gt, combinations(validate_perm(p), 2)))


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


def validate_n(n) -> int:
    """n as a positive int of at most N_CAP, the n cap of every route: S_n
    has n! elements and the complexes over it grow much faster still.  The
    refusal names the cap and nothing more, since the routes pass it on to
    callers who cannot raise it."""
    n = strict_int(n, "group size")
    if n < 1:
        raise ValidationError(f"group size must be positive, got {n}")
    if n > N_CAP:
        raise SizeError(f"n={n} exceeds the poset cap {N_CAP}")
    return n


def build_bruhat(n: int) -> BruhatPoset:
    """S_n with rank levels and all cover edges, built on first use and
    shared afterwards; n is checked by `validate_n`."""
    return _generate(validate_n(n))


@cache
def _generate(n: int) -> BruhatPoset:
    """S_n with its rank levels and cover edges, generated on the first
    call for each n."""
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
    n = strict_int(n, "group size")
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
