import random
from functools import cache
from itertools import permutations, product
from math import prod

import pytest

from vandercomplex import (
    ConsistencyError,
    LinkDiagram,
    PosIntMatrix,
    SizeError,
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
    # A row no key maps to, one level short, added to a filled table: the
    # answers must not change, so only the rows a key reached may be packed
    # and summed (packed, this row would put its homology one field low).
    monkeypatch.setattr(summands, "_TABLES", {})
    d, x = torus_two_n(3), (2, 2, 2)
    m = random_matrix(3, 3, random.Random(7))
    expect = verify_euler(d, x).homology_dims, matrix_report(m).homology_dims
    table = summand_table(3)
    dims, hom = table.rows[table.ids[0]]
    table.rows[len(table.rows)] = (dims[:-1], hom[:-1])
    assert (verify_euler(d, x).homology_dims, matrix_report(m).homology_dims) == expect


@pytest.mark.parametrize(
    "part, level, entry, match",
    [
        (0, 1, 3, r"^summand dimensions \[1, 3, 2, 1\] do not reproduce any complex: an entry lies "
                  r"outside 0 \.\. 2, the largest level of S_3$"),
        (0, 1, 1 << 64, "outside 0 .. 2, the largest level of S_3"),
        (0, 0, -1, "outside 0 .. 2, the largest level of S_3"),
        (1, 1, 3, r"^summand homology \[0, 3, 0, 0\] does not fit the summand dimensions \[1, 2, 2, 1\]$"),
        (1, 2, 1 << 64, "summand homology .* does not fit the summand dimensions"),
    ],
)
def test_row_entry_that_could_carry_is_refused_when_packed(monkeypatch, part, level, entry, match):
    # Fields are wide enough for entries up to the largest level of S_n
    # (2 at n=3); a larger entry, or a negative one, would carry into the
    # next level's field or borrow from it, so packing refuses it.
    d, x = torus_two_n(3), (2, 2, 2)
    verify_euler(d, x)
    table = summand_table(3)
    assert table.top == 2
    free = table.ids[0]
    row = [list(r) for r in table.rows[free]]
    assert row == [[1, 2, 2, 1], [0, 0, 0, 0]]
    row[part][level] = entry
    monkeypatch.setitem(table.rows, free, tuple(map(tuple, row)))
    with pytest.raises(ConsistencyError, match=match):
        verify_euler(d, x)


def test_negative_multiplicity_is_refused_before_packing():
    # the field width bounds sums of multiplicities 0 or more; a negative
    # factor would borrow across fields (summed per level: dims [0, 12])
    with pytest.raises(ConsistencyError, match=r"^summand multiplicities \[.*\] include a negative one$"):
        summands.homology_dims([[1, -1, 2], [1, 3, 1]], [0, 12])


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


@cache
def reference_rows(n):
    """Every constraint set of S_n with its row, from a table of its own."""
    table = summands.SummandTable(n)
    return [(code, table.fill(code)) for code in constraint_sets(n)]


def reference_level_sums(factors):
    """Summed dim C^k and dim H^k, one level at a time, over every
    constraint set, each weighted by the product of its positions' factors;
    also the total weight."""
    n = len(factors)
    size = n * (n - 1) // 2 + 1
    dims, hom, total = [0] * size, [0] * size, 0
    for code, (row_dims, row_hom) in reference_rows(n):
        weight = prod(f[v] for f, v in zip(factors, code))
        total += weight
        for k in range(size):
            dims[k] += weight * row_dims[k]
            hom[k] += weight * row_hom[k]
    return dims, hom, total


# bit lengths of the largest summed level: either side of the 64- and
# 128-bit field widths, and far past them
FIELD_BITS = (62, 63, 64, 65, 127, 128, 129, 300)


def test_packed_level_sums_match_per_level_sums():
    rng = random.Random(27)
    tight = set()
    for case in range(1000):
        n = rng.randint(1, 5)
        bits = FIELD_BITS[case % len(FIELD_BITS)]
        # free factors dominate, so the largest level comes near the bound
        # total weight * top that sets the field width; some factors are 0
        factors = [
            [rng.randint(1 << 8, 1 << 9), *(rng.choice((0, rng.randint(1, 16))) for _ in range(n))] for _ in range(n)
        ]
        # every constraint set takes one factor of position 0, so scaling
        # that position scales every level: the largest gets `bits` bits
        largest = max(reference_level_sums(factors)[0])
        scale = rng.randint(-(-(1 << (bits - 1)) // largest), ((1 << bits) - 1) // largest)
        factors[0] = [scale * f for f in factors[0]]
        dims, hom, total = reference_level_sums(factors)
        assert max(dims).bit_length() == bits
        assert summands.homology_dims(factors, dims) == hom, factors
        if (total * summand_table(n).top).bit_length() == bits:
            tight.add(bits)
    # cases whose width bound has exactly the bits of their largest level:
    # a width one bit short of the bound carries there
    assert tight >= {65, 129}


def test_matrix_reports_keep_the_grid_symmetries():
    # Graded forms of det(m^T) = det(m) and det(w0 m) = sign(w0) det(m):
    # transposing m keeps H, and reversing its rows or its columns reverses
    # H (k -> n(n-1)/2 - k).  Each variant walks the constraint sets, and
    # fills and sums their rows, in another order.
    rng = random.Random(14)
    for _ in range(150):
        m = random_matrix(rng.randint(2, 5), rng.choice((2, 3, 5)), rng)
        hom = matrix_report(m).homology_dims
        assert matrix_report(PosIntMatrix(tuple(zip(*m.entries)))).homology_dims == hom, m
        assert matrix_report(PosIntMatrix(m.entries[::-1])).homology_dims == hom[::-1], m
        assert matrix_report(PosIntMatrix(tuple(row[::-1] for row in m.entries))).homology_dims == hom[::-1], m


def test_link_reports_reverse_with_the_colors():
    # Reversing x reverses the rows of the grid (x_i^(s_j)) and its base
    # x_i, so H comes out reversed; draws past the default budget are
    # refused and counted.
    rng = random.Random(15)
    checked = refused = 0
    for _ in range(220):
        n = rng.randint(2, 5)
        d = torus_two_n(n) if rng.random() < 0.5 else random_diagram(n, rng)
        d = LinkDiagram(d.crossings, rng.randint(0, 2))
        x = tuple(rng.randint(1, 4) for _ in range(n))
        try:
            hom = verify_euler(d, x).homology_dims
        except SizeError:
            refused += 1
            continue
        assert verify_euler(d, x[::-1]).homology_dims == hom[::-1], (d, x)
        checked += 1
    assert checked >= 100, (checked, refused)


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
