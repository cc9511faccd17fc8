import random
from functools import cache
from itertools import permutations, product
from math import prod

import pytest

from vandercomplex import (
    ConsistencyError,
    build_bruhat,
    build_complex,
    build_matrix_complex,
    cochain_dims,
    det_exact,
    homology,
    matrix_report,
    random_diagram,
    s_vector,
    torus_two_n,
    vandermonde_matrix,
    verify_euler,
)
from vandercomplex.gendet import matrix_dims, random_matrix
from vandercomplex.gf2 import GF2Matrix
from vandercomplex import bruhat, summands
from vandercomplex.summands import summand_table

DENSE_CAP = 4000  # total basis elements the dense oracle is asked to eliminate


def product_formula(x) -> int:
    out = 1
    for i, xi in enumerate(x):
        out *= xi
        for xj in x[i + 1 :]:
            out *= xj - xi
    return out


def test_summands_match_dense_on_random_diagrams():
    rng = random.Random(2024)
    seen = with_loops = 0
    while seen < 40:
        n = rng.randint(1, 4)
        d = random_diagram(n, rng, free_loops=rng.choice((0, 0, 1, 2)))
        x = tuple(rng.randint(1, 3) for _ in range(n))
        if sum(cochain_dims(d, x)) > DENSE_CAP:
            continue
        rep = verify_euler(d, x)
        assert rep.homology_dims == homology(build_complex(d, x)).homology_dims, (d, x)
        seen += 1
        with_loops += d.free_loops > 0
    assert with_loops >= 5


def test_summands_match_dense_on_random_matrices():
    rng = random.Random(2025)
    seen = 0
    while seen < 40:
        m = random_matrix(rng.randint(1, 4), 3, rng)
        if sum(matrix_dims(m)) > DENSE_CAP:
            continue
        rep = matrix_report(m)
        assert rep.homology_dims == homology(build_matrix_complex(m)).homology_dims, m.entries
        seen += 1


def test_summands_match_dense_past_the_cap():
    # 147,840 basis elements, far past DENSE_CAP: the dense d² check and
    # ranks of the whole-level differentials against the summand route
    d, x = torus_two_n(4), (1, 2, 3, 4)
    dense = homology(build_complex(d, x))
    assert sum(dense.cochain_dims) == 147_840
    assert dense.homology_dims == verify_euler(d, x).homology_dims


@pytest.mark.parametrize(
    "n, x, budget",
    [(5, (2, 2, 2, 2, 2), 10**7), (6, (1, 2, 3, 4, 5, 6), 10**15)],
)
def test_summands_past_the_dense_engine(n, x, budget):
    d = torus_two_n(n)
    rep = verify_euler(d, x, budget=budget)
    chi = sum(h if k % 2 == 0 else -h for k, h in enumerate(rep.homology_dims))
    assert chi == det_exact(vandermonde_matrix(x, s_vector(d))) == product_formula(x)
    assert rep.agree
    assert all(0 <= h <= c for h, c in zip(rep.homology_dims, rep.cochain_dims))


def test_corrupted_summand_entry_is_caught(monkeypatch):
    d, x = torus_two_n(3), (2, 2, 2)
    verify_euler(d, x)
    table = summand_table(3)
    free = table.ids[0]  # no position held, occurs in every complex
    dims, hom = table.rows[free]
    corrupted = list(dims)
    corrupted[1] += 1
    monkeypatch.setitem(table.rows, free, (tuple(corrupted), hom))
    with pytest.raises(ConsistencyError, match="do not reproduce"):
        verify_euler(d, x)


def test_corrupted_summand_homology_is_caught(monkeypatch):
    m = random_matrix(3, 3, random.Random(7))
    matrix_report(m)
    table = summand_table(3)
    free = table.ids[0]
    dims, hom = table.rows[free]
    corrupted = list(hom)
    corrupted[0] += 1
    monkeypatch.setitem(table.rows, free, (dims, tuple(corrupted)))
    with pytest.raises(ConsistencyError, match="does not fit"):
        matrix_report(m)


def test_only_reached_rows_are_summed(monkeypatch):
    # A row no key maps to, one level short: summed even with weight zero it
    # breaks the sums (zip cuts every level to its length, itemgetter finds
    # no last level), so only rows a key reached may be summed.
    monkeypatch.setattr(summands, "_TABLES", {})
    d, x = torus_two_n(3), (2, 2, 2)
    m = random_matrix(3, 3, random.Random(7))
    expect = verify_euler(d, x).homology_dims, matrix_report(m).homology_dims
    table = summand_table(3)
    dims, hom = table.rows[table.ids[0]]
    table.rows[len(table.rows)] = (dims[:-1], hom[:-1])
    assert (verify_euler(d, x).homology_dims, matrix_report(m).homology_dims) == expect


def test_summand_fill_checks_d_squared(monkeypatch):
    monkeypatch.setattr(summands, "_TABLES", {})
    monkeypatch.setattr(GF2Matrix, "compose_is_zero", lambda self, other: False)
    with pytest.raises(ConsistencyError, match=r"^summand \[.*\]: differentials do not square to zero$"):
        verify_euler(torus_two_n(3), (2, 2, 2))


def test_sums_past_64_bits_are_exact():
    x = (2**40, 3)
    rep = verify_euler(torus_two_n(2), x, budget=2**200)
    assert sum(rep.cochain_dims) >= 1 << 63
    chi = sum(h if k % 2 == 0 else -h for k, h in enumerate(rep.homology_dims))
    assert chi == det_exact(vandermonde_matrix(x, (1, 2))) == product_formula(x)
    assert rep.agree


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("low", [0, 1])
def test_pruned_walk_matches_every_constraint_set(monkeypatch, n, low):
    # Multiplicities from every code in {0..n}^n whose held values are
    # distinct; with low = 0 some factors are zero and their sets are cut.
    rng = random.Random(100 * n + low)
    factors = [[rng.randint(low, 3) for _ in range(n + 1)] for _ in range(n)]
    monkeypatch.setattr(summands, "_TABLES", {})
    table = summand_table(n)
    occurring = {}
    for code in product(range(n + 1), repeat=n):
        held = [v for v in code if v]
        weight = prod(f[v] for f, v in zip(factors, code))
        if len(set(held)) == len(held) and weight:
            occurring[code] = weight
    expect_dims = [0] * (table.max_rank + 1)
    expect_hom = list(expect_dims)
    for code, weight in occurring.items():
        dims, hom = table.fill(code)
        for k in range(len(dims)):
            expect_dims[k] += weight * dims[k]
            expect_hom[k] += weight * hom[k]
    assert summands.homology_dims(factors, expect_dims) == expect_hom
    assert set(table.ids) == {table.key(code) for code in occurring}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_keys_and_interned_rows(monkeypatch, n):
    monkeypatch.setattr(summands, "_TABLES", {})
    table = summand_table(n)
    for code in product(range(n + 1), repeat=n):
        key = table.key(code)
        assert key == int("".join(map(str, code)), n + 1)  # position 0 most significant
        assert table.code(key) == code
    rows = {}
    for code in product(range(n + 1), repeat=n):
        held = [v for v in code if v]
        if len(set(held)) == len(held):
            rows[code] = (table.row_id(table.key(code)), table.fill(code))
    for id_a, row_a in rows.values():
        assert table.rows[id_a] == row_a
        for id_b, row_b in rows.values():
            assert (id_a == id_b) == (row_a == row_b)
    assert list(table.rows) == list(range(len(table.rows)))
    assert len(set(table.rows.values())) == len(table.rows) == len({row for _, row in rows.values()})


def constraint_sets(n):
    """Every code of S_n: a value or 0 per position, the held values distinct."""
    for code in product(range(n + 1), repeat=n):
        held = [v for v in code if v]
        if len(set(held)) == len(held):
            yield code


@cache
def poset_levels_and_covers(n):
    """Each permutation's rank and its covers, read from the S_n poset."""
    poset = build_bruhat(n)
    level_of = {p: k for k, level in enumerate(poset.levels) for p in level}
    up = {p: [] for p in level_of}
    for p, q in poset.cover_edges:
        up[p].append(q)
    return level_of, up


def poset_route_row(n, code):
    """A row as the table filled it through the poset: levels and covers
    from `build_bruhat`, differentials through `from_triplets`."""
    level_of, up = poset_levels_and_covers(n)
    free = [i for i, v in enumerate(code) if v == 0]
    levels = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for vals in permutations(sorted(set(range(1, n + 1)).difference(code))):
        p = list(code)
        for i, v in zip(free, vals):
            p[i] = v
        levels[level_of[tuple(p)]].append(tuple(p))
    position = {p: t for level in levels for t, p in enumerate(level)}
    dims = [len(level) for level in levels]
    held = [k for k, dim in enumerate(dims) if dim]
    lo, hi = held[0], held[-1] + 1
    differentials = [
        GF2Matrix.from_triplets(
            dims[k + 1],
            dims[k],
            [(position[q], t) for t, p in enumerate(levels[k]) for q in up[p] if q in position],
        )
        for k in range(lo, hi - 1)
    ]
    hom = summands._cohomology(dims[lo:hi], differentials, f"summand {list(code)}")
    return tuple(dims), (0,) * lo + tuple(hom) + (0,) * (len(dims) - hi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_row_matches_the_poset_route(n):
    table = summands.SummandTable(n)
    for code in constraint_sets(n):
        assert table.fill(code) == poset_route_row(n, code), code


def test_summand_route_builds_no_poset(monkeypatch):
    def refuse(n):
        raise AssertionError(f"the S_{n} poset was built")

    monkeypatch.setattr(summands, "_TABLES", {})
    generate = bruhat._generate
    monkeypatch.setattr(bruhat, "_generate", refuse)
    for n in range(1, 6):
        table = summand_table(n)
        codes = list(constraint_sets(n))
        for code in codes:
            table.row_id(table.key(code))
        assert len(table.ids) == len(codes)

    # verify_euler builds the poset once, for the counting formula, on the
    # call that creates the table and on every later one
    monkeypatch.setattr(summands, "_TABLES", {})
    built = []
    monkeypatch.setattr(bruhat, "_generate", lambda n: built.append(n) or generate(n))
    d, x = torus_two_n(5), (2, 1, 2, 1, 2)
    for _ in range(2):
        built.clear()
        assert verify_euler(d, x).agree
        assert built == [5]
