import random
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from vandercomplex import (
    PreconditionError,
    SizeError,
    ValidationError,
    build_bruhat,
    covers,
    inversions,
    length2_middles,
    mahonian_distribution,
)
from vandercomplex.bruhat import N_CAP
from vandercomplex.summands import summand_table


def brute_covers(p):
    """Reference: filter all transpositions by the inversion condition."""
    base = inversions(p)
    out = set()
    for i, j in combinations(range(len(p)), 2):
        q = list(p)
        q[i], q[j] = q[j], q[i]
        q = tuple(q)
        if inversions(q) == base + 1:
            out.add(q)
    return out


def inversion_histogram(n):
    """Reference Mahonian counts: tally inversions over all of S_n."""
    hist = [0] * (n * (n - 1) // 2 + 1)
    for p in permutations(range(1, n + 1)):
        hist[inversions(p)] += 1
    return hist


def test_inversions_examples():
    assert inversions((1, 2, 3)) == 0
    assert inversions((2, 1, 3)) == 1
    assert inversions((3, 2, 1)) == 3


def test_inversions_sign_relation():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        p = tuple(rng.sample(range(1, n + 1), n))
        # parity of the inversion count is the permutation sign
        sign = 1
        q = list(p)
        for i in range(n):
            while q[i] != i + 1:
                j = q.index(i + 1)
                q[i], q[j] = q[j], q[i]
                sign = -sign
        assert sign == (-1) ** inversions(p)


def test_malformed_permutations_rejected():
    with pytest.raises(ValidationError):
        inversions((1, 1, 3))
    with pytest.raises(ValidationError):
        inversions((0, 1, 2))
    with pytest.raises(ValidationError):
        covers((2, 4, 3))


def test_covers_examples():
    assert set(covers((2, 1, 3))) == {(2, 3, 1), (3, 1, 2)}
    assert covers((3, 2, 1)) == []
    assert set(covers((1, 2, 3))) == brute_covers((1, 2, 3)) == {(2, 1, 3), (1, 3, 2)}


def test_covers_match_brute_force_up_to_5():
    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            assert set(covers(p)) == brute_covers(p), p


def test_covers_are_sorted_and_raise_rank():
    for p in permutations(range(1, 6)):
        cs = covers(p)
        assert cs == sorted(cs)
        assert all(inversions(c) == inversions(p) + 1 for c in cs)


def test_build_bruhat_small():
    p1 = build_bruhat(1)
    assert [len(l) for l in p1.levels] == [1]
    assert p1.cover_edges == ()

    p3 = build_bruhat(3)
    assert [len(l) for l in p3.levels] == [1, 2, 2, 1]
    assert len(p3.cover_edges) == 8

    p4 = build_bruhat(4)
    assert [len(l) for l in p4.levels] == [1, 3, 5, 6, 5, 3, 1]


def test_build_bruhat_matches_covers_everywhere():
    poset = build_bruhat(4)
    edges = set(poset.cover_edges)
    for level in poset.levels:
        for p in level:
            assert {(p, q) for q in covers(p)} <= edges
    assert len(edges) == sum(len(covers(p)) for level in poset.levels for p in level)


def test_build_bruhat_cap():
    # the summand table builds no poset but shares the n-cap check
    for build in (build_bruhat, summand_table):
        with pytest.raises(SizeError, match="^n=7 exceeds the poset cap 6$"):
            build(7)
    with pytest.raises(ValidationError):
        build_bruhat(0)


def test_build_bruhat_builds_each_n_once():
    assert build_bruhat(5) is build_bruhat(5)
    assert build_bruhat(np.int64(4)) is build_bruhat(4.0) is build_bruhat(4)


def test_cached_poset_keeps_the_cap():
    # a poset cached at the cap does not let the next size past it
    assert build_bruhat(N_CAP).n == N_CAP
    for _ in range(2):
        with pytest.raises(SizeError, match=f"cap {N_CAP}$"):
            build_bruhat(N_CAP + 1)


def test_levels_are_lexicographic():
    poset = build_bruhat(4)
    for level in poset.levels:
        assert list(level) == sorted(level)


def test_mahonian_against_histogram():
    for n in range(1, 7):
        dist = mahonian_distribution(n)
        assert dist == inversion_histogram(n)
        assert sum(dist) == factorial(n)
        assert dist == dist[::-1]


def test_length2_middles_examples():
    poset = build_bruhat(3)
    assert length2_middles(poset, (1, 2, 3), (2, 3, 1)) == {(2, 1, 3), (1, 3, 2)}
    assert length2_middles(poset, (1, 2, 3), (3, 1, 2)) == {(2, 1, 3), (1, 3, 2)}
    assert len(length2_middles(poset, (1, 3, 2), (3, 2, 1))) == 2


def test_length2_middles_preconditions():
    poset = build_bruhat(3)
    with pytest.raises(PreconditionError, match="rank difference"):
        length2_middles(poset, (1, 2, 3), (2, 1, 3))
    # rank difference 2 but incomparable
    poset4 = build_bruhat(4)
    with pytest.raises(PreconditionError, match="not comparable"):
        length2_middles(poset4, (2, 1, 3, 4), (1, 4, 3, 2))


def test_thinness_up_to_5():
    for n in range(2, 6):
        poset = build_bruhat(n)
        paths = {}
        for p, q in poset.cover_edges:
            for t in covers(q):
                paths[(p, t)] = paths.get((p, t), 0) + 1
        assert all(v == 2 for v in paths.values()), n
        # the same fact through the public interval operation, sampled
        rng = random.Random(n)
        pairs = sorted(paths)
        for bottom, top in rng.sample(pairs, min(40, len(pairs))):
            assert len(length2_middles(poset, bottom, top)) == 2
