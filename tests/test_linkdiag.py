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


def walk_groups(d, smoothing):
    """Reference circles: component traversal instead of union-find, each
    circle as its sorted arc ids, ordered by smallest member."""
    adjacency = defaultdict(list)
    ids = set()
    for crossing, bit in zip(d.crossings, smoothing):
        ids.update(crossing.ends)
        for a, b in crossing.pairing(bit):
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = set()
    groups = []
    for v in sorted(ids):
        if v in seen:
            continue
        group = []
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            group.append(u)
            stack.extend(adjacency[u])
        groups.append(tuple(sorted(group)))
    return groups


def walk_circles(d, smoothing):
    """Reference circle count: walked circles plus free loops."""
    return len(walk_groups(d, smoothing)) + d.free_loops


def walk_height_uniform(d):
    """Reference height-uniformity scan over walked circle counts."""
    seen = {}
    for bits in product((0, 1), repeat=d.n):
        count = walk_circles(d, bits)
        first = seen.setdefault(sum(bits), (bits, count))
        if first[1] != count:
            return False, (first[0], bits)
    return True, None


def oracle_corpus():
    """Seeded random diagrams for n = 1..7, most with free loops, plus
    disjoint unions of torus closures, which are not height uniform."""
    rng = random.Random(15)
    corpus = [random_diagram(n, rng, rng.randint(0, 3)) for n in range(1, 8) for _ in range(4)]
    corpus.append(disjoint_union(torus_two_n(1), torus_two_n(2)))
    corpus.append(disjoint_union(torus_two_n(2), LinkDiagram(torus_two_n(3).crossings, 2)))
    return corpus


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


@pytest.mark.parametrize("smoothing", [(1.9, 0, 0), (True, False, False), ("1", "0", "0")])
def test_smoothing_entries_are_strict_integers(smoothing):
    d = torus_two_n(3)
    with pytest.raises(ValidationError, match="smoothing entry must be an integer"):
        circle_count(d, smoothing)
    with pytest.raises(ValidationError, match="smoothing entry must be an integer"):
        circles(d, smoothing)


def test_smoothing_entries_outside_0_1_are_refused():
    with pytest.raises(ValidationError, match="0 or 1"):
        circle_count(torus_two_n(3), (2, 0, 0))
    with pytest.raises(ValidationError, match="0 or 1"):
        circles(torus_two_n(3), (1, -1, 0))
    assert circle_count(torus_two_n(3), (1.0, 0.0, 0)) == 1


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


def test_s_vector_against_walker_oracle():
    corpus = oracle_corpus() + [torus_two_n(n) for n in range(1, 9)]
    assert any(d.free_loops for d in corpus)
    for d in corpus:
        expected = tuple(walk_circles(d, (1,) * k + (0,) * (d.n - k)) for k in range(1, d.n + 1))
        assert s_vector(d) == expected, d


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


def test_height_uniformity_against_walker_scan():
    corpus = [d for d in oracle_corpus() if d.n <= 6] + [torus_two_n(n) for n in range(1, 7)]
    verdicts = set()
    for d in corpus:
        uniform, witness = is_height_uniform(d)
        assert (uniform, witness) == walk_height_uniform(d), d
        verdicts.add(uniform)
        if witness is not None:
            a, b = witness
            assert sum(a) == sum(b)
            assert walk_circles(d, a) != walk_circles(d, b)
    assert verdicts == {True, False}


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


def test_circles_against_walker_oracle():
    corpus = oracle_corpus() + [torus_two_n(n) for n in range(1, 9)]
    for d in corpus:
        for bits in product((0, 1), repeat=d.n):
            assert circles(d, bits) == walk_groups(d, bits), (d, bits)


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


@pytest.mark.parametrize(
    "crossings, message",
    [
        pytest.param([5], r"^crossing 0 must be a Crossing, got int$", id="int"),
        pytest.param(None, r"^crossings must be an iterable of crossings, got NoneType$", id="none"),
        pytest.param(
            [torus_two_n(1).crossings[0], (1, 1, 2, 2)],
            r"^crossing 1 must be a Crossing, got tuple$",
            id="tuple-after-a-crossing",
        ),
        pytest.param("ab", r"^crossing 0 must be a Crossing, got str$", id="str"),
    ],
)
def test_entries_that_are_not_crossings_are_refused(crossings, message):
    with pytest.raises(ValidationError, match=message):
        LinkDiagram(crossings)


def reference_groups(d, smoothing):
    """Reference circles: a union-find over the raw arc ids in a dict, each
    circle as its sorted arc ids, ordered by smallest member."""
    parent = {e: e for c in d.crossings for e in c.ends}

    def root(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for crossing, bit in zip(d.crossings, smoothing):
        for a, b in crossing.pairing(bit):
            parent[root(a)] = root(b)
    groups = defaultdict(list)
    for e in parent:
        groups[root(e)].append(e)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])


def reference_s_vector(d):
    return tuple(
        len(reference_groups(d, (1,) * k + (0,) * (d.n - k))) + d.free_loops for k in range(1, d.n + 1)
    )


def relabeled_corpus(max_n, seed):
    """Random diagrams of n = 1..max_n with 0-2 free loops, and unions of
    torus closures, their arc ids shuffled and moved to negative ids and
    ids past 2^40."""
    rng = random.Random(seed)
    corpus = [random_diagram(n, rng, rng.randint(0, 2)) for n in range(1, max_n + 1) for _ in range(3)]
    corpus.append(disjoint_union(torus_two_n(1), LinkDiagram(torus_two_n(2).crossings, 1)))
    out = []
    for d in corpus:
        ids = d.arc_ids()
        pool = list(range(-len(ids), 0)) + [(1 << 40) + 3 * i for i in range(len(ids))]
        out.append(relabeled(d, dict(zip(ids, rng.sample(pool, len(ids))))))
    assert {d.free_loops for d in out} == {0, 1, 2}
    return out


def test_indexed_counts_match_a_union_find_over_raw_arc_ids():
    verdicts = set()
    for d in relabeled_corpus(6, 28):
        seen = {}
        expected_uniform = (True, None)
        for bits in product((0, 1), repeat=d.n):
            groups = reference_groups(d, bits)
            assert circles(d, bits) == groups, (d, bits)
            count = len(groups) + d.free_loops
            assert circle_count(d, bits) == count, (d, bits)
            first = seen.setdefault(sum(bits), (bits, count))
            if first[1] != count and expected_uniform[0]:
                expected_uniform = (False, (first[0], bits))
        assert is_height_uniform(d) == expected_uniform, d
        verdicts.add(expected_uniform[0])
        assert s_vector(d) == reference_s_vector(d), d
    assert verdicts == {True, False}
    for d in relabeled_corpus(8, 29) + [torus_two_n(n) for n in range(1, 9)]:
        assert s_vector(d) == reference_s_vector(d), d


def test_indexed_form_leaves_identity_alone():
    d = torus_two_n(2)
    again = LinkDiagram(list(torus_two_n(2).crossings))
    assert d == again and hash(d) == hash(again)
    assert d != LinkDiagram(d.crossings, 1)
    assert repr(d) == f"LinkDiagram(crossings={d.crossings!r}, free_loops=0)"
    assert parse_diagram(format_diagram(d)) == d
    assert d.arc_ids() == [1, 2, 3, 4]
