import random
from math import prod
from operator import itemgetter

import pytest

from vandercomplex import (
    AlgebraSpec,
    PreconditionError,
    SizeError,
    build_bruhat,
    build_complex,
    build_matrix_complex,
    chain_map,
    cochain_dims,
    connected_map,
    euler_characteristic,
    homology,
    identity_morphism,
    inversions,
    order_independence_check,
    random_diagram,
    random_morphism,
    s_vector,
    tensor_assemble,
    torus_two_n,
    verify_euler,
)
from vandercomplex import cochain
from vandercomplex.cochain import _block_matrices, _row_matrices
from vandercomplex.errors import ValidationError
from vandercomplex.gendet import random_matrix
from vandercomplex.gf2 import GF2Matrix


def naive_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a ^ b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def formula_dims(d, x):
    """Level dims recomputed straight from the poset and circle counts."""
    s = s_vector(d)
    poset = build_bruhat(d.n)
    return [
        sum(prod(x[i] ** s[p[i] - 1] for i in range(d.n)) for p in level)
        for level in poset.levels
    ]


def test_build_dims_examples():
    assert build_complex(torus_two_n(2), (1, 2)).level_dims == (4, 2)
    assert build_complex(torus_two_n(3), (1, 1, 1)).level_dims == (1, 2, 2, 1)


def test_dims_match_formula():
    rng = random.Random(21)
    cases = [(torus_two_n(2), (3, 2)), (torus_two_n(3), (2, 1, 3))]
    cases += [(random_diagram(3, rng), (2, 2, 1)) for _ in range(5)]
    for d, x in cases:
        cx = build_complex(d, x, budget=10**6)
        assert list(cx.level_dims) == formula_dims(d, x) == cochain_dims(d, x)


def test_length_mismatch():
    with pytest.raises(PreconditionError):
        build_complex(torus_two_n(3), (1, 2))
    with pytest.raises(PreconditionError):
        cochain_dims(torus_two_n(3), (1, 2))


def test_budget_error_reports_total():
    with pytest.raises(SizeError, match="total dimension 288"):
        build_complex(torus_two_n(3), (1, 2, 3), budget=50)


def test_byte_ceiling_refuses_before_assembly(monkeypatch):
    # inside the basis budget, but the 294912x131072 differential d^1
    # would need more packed bytes than gf2.MAX_MATRIX_BYTES
    assert cochain_dims(torus_two_n(5), (2,) * 5)[1:3] == [131072, 294912]

    def never(*args):
        raise AssertionError("coordinates assembled for a complex over the byte ceiling")

    monkeypatch.setattr(GF2Matrix, "from_triplets", never)
    with pytest.raises(SizeError, match="294912x131072 matrix .* byte ceiling"):
        build_complex(torus_two_n(5), (2,) * 5)


def test_differential_block_is_the_tensor_of_factor_maps():
    # cover 213 < 312 changes positions 1 and 3: the block must be the
    # connected map on color 1 (2 -> 3 circles), identity on color 2, and
    # the connected map on color 3 (3 -> 2 circles).
    x = (2, 3, 2)
    cx = build_complex(torus_two_n(3), x)
    block = cx.block((2, 1, 3), (3, 1, 2))
    expected = tensor_assemble(
        [
            connected_map(AlgebraSpec(x[0]), 2, 3),
            GF2Matrix.identity(x[1]),
            connected_map(AlgebraSpec(x[2]), 3, 2),
        ]
    )
    assert block == expected


def test_every_block_conforms_to_identity_or_merge_split():
    x = (2, 2, 3)
    cx = build_complex(torus_two_n(3), x)
    s = cx.s
    poset = build_bruhat(3)
    for src, tgt in poset.cover_edges:
        factors = []
        for i in range(3):
            if src[i] == tgt[i]:
                factors.append(GF2Matrix.identity(x[i] ** s[src[i] - 1]))
            else:
                factors.append(
                    connected_map(AlgebraSpec(x[i]), s[src[i] - 1], s[tgt[i] - 1])
                )
        assert cx.block(src, tgt) == tensor_assemble(factors), (src, tgt)


def test_single_crossing_complex():
    # one level, no differentials: cohomology is the whole cochain group
    d = torus_two_n(1)
    for c in (1, 2, 5):
        rep = verify_euler(d, (c,))
        assert rep.cochain_dims == [c]
        assert rep.homology_dims == [c]
        assert rep.euler_characteristic == c == rep.determinant
        assert rep.agree


def test_free_loops_shift_the_exponents():
    from vandercomplex import LinkDiagram

    base = torus_two_n(2)
    d = LinkDiagram(base.crossings, free_loops=1)
    assert s_vector(d) == (2, 3)
    rep = verify_euler(d, (2, 3))
    # det of [[2^2, 2^3], [3^2, 3^3]] = 4*27 - 8*9
    assert rep.determinant == 36
    assert rep.euler_characteristic == 36 and rep.agree


def test_disjoint_union_euler():
    from vandercomplex import disjoint_union

    d = disjoint_union(torus_two_n(1), torus_two_n(2))
    # non-monotone: the untouched summand contributes its 0-smoothing circles
    assert s_vector(d) == (3, 2, 3)
    for x in [(1, 2, 3), (2, 2, 1), (3, 1, 2)]:
        rep = verify_euler(d, x)
        assert rep.agree, x


def test_homology_ranks_against_naive_oracle_torus3():
    cx = build_complex(torus_two_n(3), (1, 2, 3))
    rep = homology(cx)
    ranks = [naive_rank(delta.to_rows()) for delta in cx.differentials]
    dims = cx.level_dims
    expected = [
        dims[k]
        - (ranks[k] if k < len(ranks) else 0)
        - (ranks[k - 1] if k > 0 else 0)
        for k in range(len(dims))
    ]
    assert rep.homology_dims == expected


def test_homology_desk_examples_with_naive_oracle():
    cx = build_complex(torus_two_n(2), (1, 2))
    rep = homology(cx)
    r = naive_rank(cx.differentials[0].to_rows())
    assert rep.homology_dims == [4 - r, 2 - r] == [2, 0]
    assert rep.euler_characteristic == 2

    cx = build_complex(torus_two_n(2), (2, 1))
    rep = homology(cx)
    r = naive_rank(cx.differentials[0].to_rows())
    assert rep.homology_dims == [2 - r, 4 - r] == [0, 2]
    assert rep.euler_characteristic == -2

    rep = homology(build_complex(torus_two_n(2), (1, 1)))
    assert rep.homology_dims == [0, 0]
    assert rep.euler_characteristic == 0


def test_homology_euler_consistency():
    rng = random.Random(22)
    for _ in range(10):
        d = random_diagram(rng.randint(1, 3), rng)
        x = tuple(rng.randint(1, 3) for _ in range(d.n))
        try:
            cx = build_complex(d, x, budget=50_000)
        except SizeError:
            continue
        rep = homology(cx)
        assert rep.euler_from_homology == rep.euler_characteristic


def test_d_squared_on_fifty_random_three_crossing_diagrams():
    rng = random.Random(23)
    built = 0
    while built < 50:
        d = random_diagram(3, rng)
        x = tuple(rng.randint(1, 3) for _ in range(3))
        try:
            cx = build_complex(d, x, budget=200_000)
        except SizeError:
            continue
        built += 1
        assert cx.verify_d_squared(), (d, x)


def test_verify_euler_examples():
    rep = verify_euler(torus_two_n(3), (1, 2, 3))
    assert (rep.euler_characteristic, rep.determinant, rep.agree) == (12, 12, True)
    rep = verify_euler(torus_two_n(4), (1, 2, 3, 4), skip_homology=True)
    assert (rep.euler_characteristic, rep.agree) == (288, True)
    rep = verify_euler(torus_two_n(2), (2, 2))
    assert (rep.determinant, rep.euler_characteristic, rep.agree) == (0, 0, True)


def test_verify_euler_report_fields():
    rep = verify_euler(torus_two_n(2), (1, 2))
    d = rep.to_dict()
    assert d["n"] == 2 and d["x"] == [1, 2] and d["s"] == [1, 2]
    assert d["cochain_dims"] == [4, 2] and d["homology_dims"] == [2, 0]
    assert d["euler_characteristic"] == d["euler_characteristic_homology"] == 2
    assert d["agree"] is True and d["elapsed_ms"] >= 0
    skipped = verify_euler(torus_two_n(2), (1, 2), skip_homology=True).to_dict()
    assert skipped["homology_dims"] is None
    assert skipped["euler_characteristic_homology"] is None


def test_order_independence_torus():
    rng = random.Random(24)
    for n, x in [(3, (1, 2, 3)), (4, (2, 1, 2, 1))]:
        d = torus_two_n(n)
        for _ in range(3):
            rho = tuple(rng.sample(range(1, n + 1), n))
            res = order_independence_check(d, x, rho)
            assert res.equal and res.height_uniform is True
    # the reversal ordering specifically
    res = order_independence_check(torus_two_n(4), (1, 2, 1, 2), (4, 3, 2, 1))
    assert res.equal and res.height_uniform is True


def test_order_independence_identity_always_true():
    rng = random.Random(25)
    d = random_diagram(3, rng)
    res = order_independence_check(d, (1, 2, 1), (1, 2, 3))
    assert res.equal


def test_order_independence_flags_non_uniform():
    du = torus_two_n(1)
    d = random_diagram(3, random.Random(26))
    uniform, _ = __import__("vandercomplex").is_height_uniform(d)
    res = order_independence_check(d, (1, 1, 2), (1, 2, 3))
    assert res.height_uniform == uniform


def _refuse(d):
    raise AssertionError("input-dependent work ran for n over the cap")


def test_n_over_the_cap_is_refused_before_the_s_vector(monkeypatch):
    # the s-vector is quadratic in n, so the n cap comes first on every route
    monkeypatch.setattr(cochain, "s_vector", _refuse)
    d, x = torus_two_n(7), (1,) * 7
    for call in (
        lambda: verify_euler(d, x),
        lambda: verify_euler(d, x, skip_homology=True),
        lambda: build_complex(d, x),
        lambda: cochain_dims(d, x),
        lambda: chain_map(d, identity_morphism(x)),
    ):
        with pytest.raises(SizeError, match=r"^n=7 exceeds the poset cap 6$"):
            call()


def test_order_independence_refuses_n_over_the_cap_before_the_smoothing_scan(monkeypatch):
    monkeypatch.setattr(cochain, "is_height_uniform", _refuse)
    with pytest.raises(SizeError, match=r"^n=7 exceeds the poset cap 6$"):
        order_independence_check(torus_two_n(7), (1,) * 7, (7, 6, 5, 4, 3, 2, 1))


def test_basis_index_round_trip():
    cx = build_complex(torus_two_n(3), (2, 1, 3))
    for level in range(cx.max_rank + 1):
        for idx in range(cx.level_dims[level]):
            perm, coloring = cx.basis_label(level, idx)
            assert cx.basis_index(perm, coloring) == (level, idx)
            assert inversions(perm) == level


def test_euler_characteristic_helper():
    assert euler_characteristic([4, 2]) == 2
    assert euler_characteristic([1, 3, 5, 6, 5, 3, 1]) == 0


def test_homology_rejects_broken_differentials():
    from dataclasses import replace

    from vandercomplex import ConsistencyError

    cx = build_complex(torus_two_n(3), (2, 1, 2))
    mangled = list(cx.differentials)
    mangled[1] = GF2Matrix.from_triplets(
        mangled[1].rows, mangled[1].cols, [(0, 0), (1, 1)]
    )
    broken = replace(cx, differentials=tuple(mangled))
    assert not broken.verify_d_squared()
    with pytest.raises(ConsistencyError, match="square to zero"):
        homology(broken)


# Stacked, these two levels are 4 rows by 5 columns.
LEVEL_SHAPES = [(1, 2), (3, 5)]

# Both block assemblers: by position, for differentials, and by row, for
# chain maps.  They take the same groups and run the same checks.
ASSEMBLERS = (_block_matrices, _row_matrices)


def test_blocks_fill_their_own_level():
    groups = [((), (), (), [(0, 0, 1)]), ((5,), (1,), (0,), [(1, 2, 0)])]
    for assemble in ASSEMBLERS:
        levels = assemble(LEVEL_SHAPES, groups)
        assert [m.to_rows() for m in levels] == [[[0, 1]], [[0] * 5, [0] * 5, [1] * 5]], assemble.__name__


@pytest.mark.parametrize(
    "group",
    [
        pytest.param(((), (), (), [(0, 0, 3)]), id="position-past-its-columns"),
        pytest.param(((), (), (), [(0, 1, 0)]), id="position-past-its-rows"),
        pytest.param(((3,), (1,), (0,), [(0, 0, 0)]), id="factor-past-its-columns"),
        pytest.param(((2,), (0,), (1,), [(0, 0, 1)]), id="factor-past-its-rows"),
        pytest.param(((2,), (-1,), (0,), [(1, 2, 4)]), id="negative-step"),
        pytest.param(((0,), (1,), (1,), [(1, 0, 0)]), id="no-choice"),
        pytest.param(((2,), (0,), (0,), [(1, 0, 0)]), id="no-step"),
        pytest.param(((2, 2), (1, 2), (1, 1), [(1, 0, 0)]), id="overlapping-copies"),
    ],
)
def test_blocks_are_checked_against_their_own_level(group):
    # each stays inside the stacked shape, so only a check per block and
    # level, or per group's row steps, sees it; both assemblers refuse it
    # with the same text
    texts = []
    for assemble in ASSEMBLERS:
        with pytest.raises(ValidationError) as refused:
            assemble(LEVEL_SHAPES, [group])
        texts.append(str(refused.value))
    assert texts[0] == texts[1]


def test_both_assemblers_refuse_a_level_over_the_byte_ceiling():
    for assemble in ASSEMBLERS:
        with pytest.raises(SizeError, match="294912x131072 matrix .* byte ceiling"):
            assemble([(2, 2), (294912, 131072)], [((), (), (), [(0, 0, 0)])])


def _copies_overlap(factors) -> bool:
    """Whether, taken by row step, a factor's row step falls within the
    rows that the smaller steps span."""
    down = 0
    for k, _, o in sorted(factors, key=itemgetter(2)):
        if k > 1 and 0 < o <= down:
            return True
        down += (k - 1) * o
    return False


def _random_groups(rng, shapes):
    """Random groups of up to three factors, steps 0-3 and choices 1-3, in
    no order, whose copies of rows never overlap, with blocks that fit
    their level: factors whose columns overlap, caps whose shifts cancel,
    and blocks that overlap."""
    groups = []
    for _ in range(rng.randint(0, 6)):
        factors = []
        for _ in range(rng.randint(0, 3)):
            k, i, o = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
            factor = (k, i or (0 if o else 1), o)
            if not _copies_overlap(factors + [factor]):
                factors.append(factor)
        ks, mis, mos = (tuple(f[t] for f in factors) for t in range(3))
        down = sum((k - 1) * o for k, _, o in factors)
        right = sum((k - 1) * i for k, i, _ in factors)
        blocks = []
        for _ in range(rng.randint(0, 3)):
            lv = rng.randrange(len(shapes))
            rows, cols = shapes[lv]
            if rows > down and cols > right:
                blocks.append((lv, rng.randint(0, rows - 1 - down), rng.randint(0, cols - 1 - right)))
        groups.append((ks, mis, mos, blocks))
    return groups


def test_row_assembler_matches_positions_on_random_groups(monkeypatch):
    # a block whose rows are still zero assigns its shifted rows, any other
    # XORs them in; `any` on those rows picks the branch, so counting what
    # it answers shows that the groups reach both
    answers = []

    def counted_any(segment):
        answers.append(any(segment))
        return answers[-1]

    monkeypatch.setattr(cochain, "any", counted_any, raising=False)
    rng = random.Random(18)
    for _ in range(300):
        shapes = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 3))]
        groups = _random_groups(rng, shapes)
        assert _row_matrices(shapes, groups) == _block_matrices(shapes, groups)
    assert answers.count(False) > 100 and answers.count(True) > 100


def test_identical_blocks_at_one_place_cancel():
    # a cup of two copies of a cap of three columns: the block at row 1,
    # column 3 sets columns 3-5 of rows 1 and 2; an even number of copies
    # of it cancels, an odd number leaves one
    group = ((2, 3), (0, 1), (1, 0))
    for assemble in ASSEMBLERS:
        for copies in range(5):
            (level,) = assemble([(4, 8)], [group + ([(0, 1, 3)] * copies,)])
            block = 0b111000 if copies % 2 else 0
            assert level.ints == [0, block, block, 0], (assemble.__name__, copies)


def test_real_groups_at_n5_and_n6_never_overlap():
    # the differentials of matrix and link complexes, and the chain maps
    # of random endomorphisms, all pass the row-step check of both
    # assemblers, assemble, square to zero and commute
    rng = random.Random(19)
    for n, max_entry, count in ((6, 2, 4), (5, 3, 6)):
        for _ in range(count):
            assert build_matrix_complex(random_matrix(n, max_entry, rng)).verify_d_squared()
    built = 0
    while built < 6:
        d = random_diagram(5, rng, free_loops=rng.randint(0, 1))
        x = tuple(rng.randint(1, 2) for _ in range(5))
        try:
            cx = build_complex(d, x, budget=300_000)
        except SizeError:
            continue
        assert cx.verify_d_squared()
        cm = chain_map(d, random_morphism(rng, x, x, dot_colors=(1, 3)), source_complex=cx)
        assert any(any(m.ints) for m in cm.blocks) and cm.commutes()
        built += 1


def test_block_requires_a_cover():
    cx = build_complex(torus_two_n(3), (1, 1, 2))
    with pytest.raises(PreconditionError):
        cx.block((1, 2, 3), (3, 2, 1))
