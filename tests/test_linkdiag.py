import json
import random
from collections import defaultdict
from itertools import product

import pytest

from vandercomplex import (
    Crossing,
    FormatError,
    LinkDiagram,
    PreconditionError,
    SizeError,
    StructureError,
    ValidationError,
    circle_count,
    circles,
    disjoint_union,
    format_diagram,
    is_height_uniform,
    parse_diagram,
    random_diagram,
    s_vector,
    torus_two_n,
)


def walk_circles(d, smoothing):
    """Reference circle count: component traversal instead of union-find."""
    adjacency = defaultdict(list)
    ids = set()
    for crossing, bit in zip(d.crossings, smoothing):
        ids.update(crossing.ends)
        for a, b in crossing.pairing(bit):
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = set()
    components = 0
    for v in sorted(ids):
        if v in seen:
            continue
        components += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adjacency[u])
    return components + d.free_loops


def relabeled(d, mapping):
    return LinkDiagram(
        tuple(
            Crossing(
                zero=tuple(tuple(mapping[e] for e in pair) for pair in c.zero),
                one=tuple(tuple(mapping[e] for e in pair) for pair in c.one),
            )
            for c in d.crossings
        ),
        d.free_loops,
    )


def test_torus_structure():
    d = torus_two_n(2)
    assert d.n == 2
    assert len(d.arc_ids()) == 4
    assert torus_two_n(5).n == 5
    with pytest.raises(ValidationError):
        torus_two_n(0)


def test_parse_round_trip():
    d = torus_two_n(2)
    assert parse_diagram(format_diagram(d)) == d
    du = disjoint_union(torus_two_n(1), torus_two_n(3))
    assert parse_diagram(format_diagram(du)) == du


def test_parse_structural_error_lists_identifier():
    text = json.dumps(
        {"crossings": [{"zero": [[1, 2], [3, 4]], "one": [[1, 3], [2, 4]]}]}
    )
    with pytest.raises(StructureError, match=r"\[1, 2, 3, 4\]"):
        parse_diagram(text)


def test_parse_format_errors():
    with pytest.raises(FormatError):
        parse_diagram("not json at all {")
    with pytest.raises(FormatError):
        parse_diagram(json.dumps({"edges": []}))
    # identical pairings inside a crossing
    text = json.dumps(
        {"crossings": [{"zero": [[1, 2], [1, 2]], "one": [[2, 1], [1, 2]]}]}
    )
    with pytest.raises(FormatError, match="coincide"):
        parse_diagram(text)
    # pairings over different end sets
    text = json.dumps(
        {"crossings": [{"zero": [[1, 1], [2, 2]], "one": [[1, 3], [2, 3]]}]}
    )
    with pytest.raises(FormatError, match="different arc ends"):
        parse_diagram(text)


def test_circle_count_examples():
    assert circle_count(torus_two_n(3), (1, 0, 0)) == 1
    assert circle_count(torus_two_n(4), (1, 1, 0, 1)) == 3
    assert circle_count(torus_two_n(2), (0, 0)) == 2
    assert circle_count(torus_two_n(3), (0, 0, 0)) == 2


def test_circle_count_length_mismatch():
    with pytest.raises(PreconditionError):
        circle_count(torus_two_n(3), (1, 0))


def test_circle_count_against_walker_oracle():
    rng = random.Random(11)
    corpus = [torus_two_n(n) for n in range(1, 6)]
    corpus.append(disjoint_union(torus_two_n(1), torus_two_n(2)))
    corpus.append(disjoint_union(torus_two_n(2), torus_two_n(3)))
    corpus.extend(random_diagram(rng.randint(1, 5), rng) for _ in range(12))
    corpus.append(LinkDiagram(torus_two_n(2).crossings, free_loops=3))
    for d in corpus:
        assert d.n <= 10
        for bits in product((0, 1), repeat=d.n):
            assert circle_count(d, bits) == walk_circles(d, bits), (d, bits)


def test_torus_count_equals_height_up_to_8():
    for n in range(1, 9):
        d = torus_two_n(n)
        for bits in product((0, 1), repeat=n):
            if sum(bits) > 0:
                assert circle_count(d, bits) == sum(bits)


def test_s_vector_examples():
    assert s_vector(torus_two_n(1)) == (1,)
    assert s_vector(torus_two_n(2)) == (1, 2)
    assert s_vector(torus_two_n(5)) == (1, 2, 3, 4, 5)


def test_s_vector_relabel_invariant():
    rng = random.Random(12)
    for _ in range(10):
        d = random_diagram(3, rng)
        ids = d.arc_ids()
        images = rng.sample(range(100, 1000), len(ids))
        mapping = dict(zip(ids, images))
        assert s_vector(relabeled(d, mapping)) == s_vector(d)


def test_height_uniformity():
    for n in range(1, 9):
        uniform, witness = is_height_uniform(torus_two_n(n))
        assert uniform and witness is None
    # any single-crossing diagram is trivially uniform
    rng = random.Random(13)
    assert is_height_uniform(random_diagram(1, rng))[0]


def test_height_uniformity_witness():
    du = disjoint_union(torus_two_n(1), torus_two_n(2))
    uniform, witness = is_height_uniform(du)
    assert not uniform
    a, b = witness
    assert sum(a) == sum(b)
    assert circle_count(du, a) != circle_count(du, b)
    # the concrete failing pair at height 2
    assert circle_count(du, (1, 1, 0)) == 2
    assert circle_count(du, (0, 1, 1)) == 4


def test_height_uniformity_cap():
    with pytest.raises(SizeError):
        is_height_uniform(torus_two_n(21))


def test_circles_enumeration():
    d = torus_two_n(2)
    # all-0 smoothing: the two strands stay separate
    assert circles(d, (0, 0)) == [(1, 3), (2, 4)]
    assert circles(d, (1, 1)) == [(1, 2), (3, 4)]
    rng = random.Random(14)
    for _ in range(10):
        dd = random_diagram(3, rng)
        for bits in product((0, 1), repeat=3):
            groups = circles(dd, bits)
            assert len(groups) + dd.free_loops == circle_count(dd, bits)
            assert groups == sorted(groups, key=lambda g: g[0])
            assert sorted(e for g in groups for e in g) == dd.arc_ids()


def test_free_loops_add_to_counts():
    d = LinkDiagram(torus_two_n(2).crossings, free_loops=2)
    assert circle_count(d, (0, 0)) == 4
    assert s_vector(d) == (3, 4)


def test_random_diagram_closed_and_seeded():
    rng1 = random.Random(99)
    rng2 = random.Random(99)
    for _ in range(20):
        n = rng1.randint(1, 4)
        assert random_diagram(n, rng1) == random_diagram(rng2.randint(1, 4), rng2)
