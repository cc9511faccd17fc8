import dataclasses
import json
import random
from functools import reduce
from operator import xor

import pytest

from vandercomplex import (
    CompositionError,
    ConsistencyError,
    FormatError,
    MembershipError,
    PreconditionError,
    QuotientSpace,
    SizeError,
    ValidationError,
    ZndiagMorphism,
    build_complex,
    chain_map,
    cohomology_quotients,
    compose,
    identity_morphism,
    induced_cohomology_map,
    induced_map_from,
    parse_morphism,
    random_diagram,
    random_morphism,
    torus_two_n,
    validate_morphism,
)
from vandercomplex import cochain, gf2, zndiag
from vandercomplex.cli import main
from vandercomplex.gf2 import GF2Matrix


def test_validation_examples():
    m = ZndiagMorphism((3, 5), (4, 3), ((1, 2),))
    assert validate_morphism(m).arcs == ((1, 2),)
    with pytest.raises(ValidationError, match="rightward"):
        ZndiagMorphism((3, 5), (4, 3), ((2, 1),))
    with pytest.raises(ValidationError, match="colors"):
        ZndiagMorphism((3, 5), (4, 5), ((1, 2),))
    with pytest.raises(ValidationError, match="reuses"):
        ZndiagMorphism((2, 2), (2, 2), ((1, 1), (1, 2)))
    with pytest.raises(ValidationError):
        ZndiagMorphism((2, 2), (2, 2, 2))
    with pytest.raises(ValidationError):
        ZndiagMorphism((2,), (2,), dots=(0,))
    with pytest.raises(ValidationError):
        ZndiagMorphism((2, 2), (2, 2), ((0, 1),))


def test_identity_morphism():
    ident = identity_morphism((1, 2, 3))
    assert ident.arcs == ((1, 1), (2, 2), (3, 3))
    assert ident.dots == ()


def test_compose_identity_laws():
    rng = random.Random(41)
    x, y = (1, 2, 2), (2, 1, 2)
    for _ in range(10):
        m = random_morphism(rng, x, y)
        assert compose(identity_morphism(x), m) == m
        assert compose(m, identity_morphism(y)) == m


def test_compose_and_identity_outputs_pass_every_check():
    # both build their result without re-running the constructor checks
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        x, y, z = (tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(3))
        a, b = random_morphism(rng, x, y), random_morphism(rng, y, z)
        for m in (compose(a, b), compose(identity_morphism(x), a), identity_morphism(x)):
            checked = validate_morphism(m)
            assert m == checked and repr(m) == repr(checked) and hash(m) == hash(checked)
    # colors given as floats come out as the ints the constructor gives
    assert repr(identity_morphism((2.0, 1))) == repr(ZndiagMorphism((2, 1), (2, 1), ((1, 1), (2, 2))))


def test_compose_chains_arcs():
    a = ZndiagMorphism((1, 2, 2), (2, 1, 2), ((1, 2),))
    b = ZndiagMorphism((2, 1, 2), (2, 2, 1), ((2, 3),))
    c = compose(a, b)
    assert c.arcs == ((1, 3),)
    # middle points 1 and 3 (colors 2 and 2) are matched on neither side
    assert c.dots == (2, 2)


def test_compose_unmatched_middle_becomes_dot():
    a = ZndiagMorphism((4,), (4,))
    b = ZndiagMorphism((4,), (4,))
    c = compose(a, b)
    assert c.dots == (4,)
    assert c.arcs == ()


def test_compose_boundary_mismatch():
    a = ZndiagMorphism((1,), (2,))
    b = ZndiagMorphism((3,), (3,))
    with pytest.raises(CompositionError):
        compose(a, b)


def test_parse_morphism():
    text = json.dumps(
        {"source": [3, 5], "target": [4, 3], "arcs": [[1, 2]], "dots": [3, 1]}
    )
    m = parse_morphism(text)
    assert m.arcs == ((1, 2),) and m.dots == (1, 3)
    with pytest.raises(FormatError):
        parse_morphism("{}")
    with pytest.raises(FormatError):
        parse_morphism("not json")


def test_chain_map_identity_is_identity():
    d = torus_two_n(2)
    cm = chain_map(d, identity_morphism((1, 2)))
    assert all(b == GF2Matrix.identity(b.rows) for b in cm.blocks)
    assert cm.commutes()


def test_chain_map_even_dot_kills():
    d = torus_two_n(2)
    m = ZndiagMorphism((1, 2), (1, 2), ((1, 1), (2, 2)), dots=(2,))
    cm = chain_map(d, m)
    assert not any(any(b.ints) for b in cm.blocks)
    assert cm.commutes()


def test_chain_map_cap_then_cup():
    cm = chain_map(torus_two_n(1), ZndiagMorphism((2,), (2,)))
    assert cm.blocks[0].to_rows() == [[1, 1], [1, 1]]


def test_dot_invariance():
    d = torus_two_n(2)
    base = ZndiagMorphism((1, 2), (2, 2), ((2, 2),), dots=(3, 5))
    permuted = ZndiagMorphism((1, 2), (2, 2), ((2, 2),), dots=(5, 3))
    assert base == permuted  # the multiset is canonicalized
    padded = ZndiagMorphism((1, 2), (2, 2), ((2, 2),), dots=(3, 5, 7, 7))
    a = chain_map(d, base)
    b = chain_map(d, padded)
    assert all(x == y for x, y in zip(a.blocks, b.blocks))
    killed = ZndiagMorphism((1, 2), (2, 2), ((2, 2),), dots=(3, 5, 2))
    assert not any(any(b.ints) for b in chain_map(d, killed).blocks)


def test_chain_map_commutation_random():
    rng = random.Random(42)
    d = torus_two_n(2)
    pool = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 2)]
    complexes = {x: build_complex(d, x) for x in pool}
    for _ in range(30):
        x, y = rng.choice(pool), rng.choice(pool)
        m = random_morphism(rng, x, y)
        cm = chain_map(d, m, source_complex=complexes[x], target_complex=complexes[y])
        assert cm.commutes(), m


def test_chain_maps_from_rows_equal_chain_maps_from_positions(monkeypatch):
    # the same groups through the position assembler give the same bits
    rng = random.Random(18)
    seen = set()
    for _ in range(120):
        n = rng.randint(1, 4)
        d = random_diagram(n, rng)
        x = tuple(rng.randint(1, 3) for _ in range(n))
        y = tuple(xi if rng.random() < 0.6 else rng.randint(1, 3) for xi in x)
        m = random_morphism(rng, x, y, dot_colors=(1, 2, 3, 5))
        try:
            cm = chain_map(d, m, budget=4000)
        except SizeError:
            continue
        with monkeypatch.context() as patched:
            patched.setattr(zndiag, "_row_matrices", cochain._block_matrices)
            ref = chain_map(d, m, source_complex=cm.source, target_complex=cm.target)
        assert cm.blocks == ref.blocks, m
        nonzero = any(any(b.ints) for b in cm.blocks)
        seen.add("nonzero" if nonzero else "zero")
        seen.add("odd dots" if m.sphere_factor() else "even dot")
        if nonzero:
            seen.update("moving arc" for i, j in m.arcs if i != j)
            seen.update("cap" for i in range(1, n + 1) if i not in m.arc_by_source())
            seen.update("cup" for j in range(1, n + 1) if j not in m.arc_by_target())
            seen.add(f"n={n}")
    assert seen >= {"nonzero", "zero", "odd dots", "even dot", "moving arc", "cap", "cup", "n=3", "n=4"}


def test_chain_map_functor_law():
    rng = random.Random(43)
    d = torus_two_n(2)
    pool = [(1, 2), (2, 1), (2, 2), (1, 1)]
    complexes = {x: build_complex(d, x) for x in pool}
    for _ in range(20):
        x, y, z = (rng.choice(pool) for _ in range(3))
        a = random_morphism(rng, x, y)
        b = random_morphism(rng, y, z)
        cma = chain_map(d, a, source_complex=complexes[x], target_complex=complexes[y])
        cmb = chain_map(d, b, source_complex=complexes[y], target_complex=complexes[z])
        cmab = chain_map(
            d, compose(a, b), source_complex=complexes[x], target_complex=complexes[z]
        )
        for k in range(len(cmab.blocks)):
            assert cmab.blocks[k] == cmb.blocks[k] @ cma.blocks[k]


def test_chain_map_rejects_mismatched_prebuilt():
    d = torus_two_n(2)
    wrong = build_complex(d, (3, 3))
    with pytest.raises(PreconditionError):
        chain_map(d, identity_morphism((1, 2)), source_complex=wrong)
    with pytest.raises(PreconditionError):
        chain_map(torus_two_n(3), identity_morphism((1, 2)))
    # same colors, another diagram's circle counts: the blocks would not fit
    x = (1, 2, 2)
    cx = build_complex(torus_two_n(3), x)
    cy = build_complex(random_diagram(3, random.Random(5)), x)
    assert cx.s != cy.s
    with pytest.raises(PreconditionError, match="circle counts"):
        chain_map(torus_two_n(3), identity_morphism(x), source_complex=cx, target_complex=cy)


def test_induced_identity():
    maps = induced_cohomology_map(torus_two_n(2), identity_morphism((1, 2)))
    assert maps[0] == GF2Matrix.identity(2)
    assert maps[1].rows == maps[1].cols == 0


def test_induced_cap_cup_value():
    # no arcs on a one-crossing diagram: every class maps to the sum of
    # all classes, the all-ones matrix on the two-dimensional cohomology
    maps = induced_cohomology_map(torus_two_n(1), ZndiagMorphism((2,), (2,)))
    assert maps[0].to_rows() == [[1, 1], [1, 1]]


def test_induced_composition():
    rng = random.Random(44)
    d = torus_two_n(2)
    pool = [(1, 2), (2, 1), (2, 2)]
    complexes = {x: build_complex(d, x) for x in pool}
    quotients = {x: cohomology_quotients(complexes[x]) for x in pool}
    for _ in range(15):
        x, y, z = (rng.choice(pool) for _ in range(3))
        a = random_morphism(rng, x, y)
        b = random_morphism(rng, y, z)
        cma = chain_map(d, a, source_complex=complexes[x], target_complex=complexes[y])
        cmb = chain_map(d, b, source_complex=complexes[y], target_complex=complexes[z])
        cmab = chain_map(
            d, compose(a, b), source_complex=complexes[x], target_complex=complexes[z]
        )
        ia = induced_map_from(cma, quotients[x], quotients[y])
        ib = induced_map_from(cmb, quotients[y], quotients[z])
        iab = induced_map_from(cmab, quotients[x], quotients[z])
        for k in range(len(iab)):
            assert iab[k] == ib[k] @ ia[k]


def test_induced_rejects_broken_map():
    # mangle a block so a cycle image leaves the target cycle space; the
    # quotient reduction must flag it instead of returning garbage
    d = torus_two_n(2)
    cm = chain_map(d, identity_morphism((1, 2)))
    assert any(row & 1 for row in cm.source.differentials[0].ints)  # e0 is not a cycle
    bad_block = GF2Matrix.from_triplets(4, 4, [(0, j) for j in range(4)])
    mangled = type(cm)(cm.morphism, cm.source, cm.target, (bad_block, cm.blocks[1]))
    assert not mangled.commutes()
    with pytest.raises(ConsistencyError, match="cycle image"):
        induced_map_from(mangled)


def test_induced_cohomology_map_refuses_a_map_that_does_not_commute(monkeypatch):
    d = torus_two_n(2)
    cm = chain_map(d, identity_morphism((1, 2)))
    bad_block = GF2Matrix.from_triplets(4, 4, [(0, j) for j in range(4)])
    mangled = type(cm)(cm.morphism, cm.source, cm.target, (bad_block, cm.blocks[1]))
    monkeypatch.setattr(zndiag, "chain_map", lambda *args, **kwargs: mangled)
    with pytest.raises(ConsistencyError, match="^chain map does not commute with the differentials$"):
        induced_cohomology_map(d, identity_morphism((1, 2)))


def nullspace_quotients(cx):
    """The quotients from each level's kernel basis and the table that
    inserting the previous differential's columns one by one builds, each
    reduced separately."""
    top = cx.max_rank
    out = []
    for k in range(top + 1):
        dim = cx.level_dims[k]
        kernel = gf2.reduce_columns(cx.differentials[k])[0] if k < top else [1 << j for j in range(dim)]
        boundaries: dict[int, int] = {}
        for v in cx.differentials[k - 1].transpose().ints if k > 0 else []:
            gf2._insert(boundaries, v)
        out.append(QuotientSpace(kernel, boundaries, dim))
    return out


def test_cohomology_quotients_match_nullspace_construction():
    rng = random.Random(45)
    for trial in range(12):
        n = rng.randint(1, 4)
        d = random_diagram(n, rng, free_loops=trial % 3)
        x = tuple(rng.randint(1, 2) for _ in range(n))
        cx = build_complex(d, x)
        ours = cohomology_quotients(cx)
        ref = nullspace_quotients(cx)
        assert len(ours) == len(ref) == len(cx.level_dims)
        for k, (q, r) in enumerate(zip(ours, ref)):
            assert (q.n, q.dim) == (r.n, r.dim)
            assert q.representatives == r.representatives
            # random sums of kernel vectors: the same coordinates
            dim = cx.level_dims[k]
            kernel = gf2.reduce_columns(cx.differentials[k])[0] if k < cx.max_rank else [1 << j for j in range(dim)]
            picks = [[rng.random() < 0.5 for _ in kernel] for _ in range(6)]
            sums = [reduce(xor, (v for p, v in zip(pick, kernel) if p), 0) for pick in picks]
            cycles = GF2Matrix(len(sums), dim, sums).transpose()
            assert q.coordinates(cycles) == r.coordinates(cycles)
            if k < cx.max_rank and any(cx.differentials[k].ints):
                with pytest.raises(MembershipError):
                    q.coordinates(GF2Matrix.identity(dim))


def test_cohomology_quotients_reject_corrupted_differential():
    # flip one bit of d^1 in a row of d^0's image, so d^1 d^0 != 0: the
    # boundaries of level 1 leave its cycle space
    cx = build_complex(torus_two_n(3), (1, 2, 2))
    d0, d1, *rest = cx.differentials
    c = next(i for i, row in enumerate(d0.to_rows()) if any(row))
    bad = GF2Matrix(d1.rows, d1.cols, [d1.ints[0] ^ 1 << c] + d1.ints[1:])
    assert not bad.compose_is_zero(d0)
    corrupted = dataclasses.replace(cx, differentials=(d0, bad, *rest))
    with pytest.raises(MembershipError, match="not in the span of the cycles"):
        cohomology_quotients(corrupted)


def test_induced_map_from_checks_quotient_lists():
    d = torus_two_n(2)
    cm = chain_map(d, identity_morphism((1, 2)))
    quotients = cohomology_quotients(cm.source)
    with pytest.raises(PreconditionError, match="level 1: 1 source quotients for 2 levels"):
        induced_map_from(cm, quotients[:1], quotients)
    with pytest.raises(PreconditionError, match="level 2: 3 target quotients"):
        induced_map_from(cm, quotients, quotients + quotients[:1])
    # another complex's quotients: the same number of levels, other lengths
    other = cohomology_quotients(build_complex(d, (2, 2)))
    with pytest.raises(PreconditionError, match="level 0: the source quotient .* length 8, .* dimension 4"):
        induced_map_from(cm, other, quotients)
    # a level whose source cohomology is zero runs no product, so only the
    # check can catch a quotient of the wrong length there
    assert quotients[1].dim == 0
    wrong = [quotients[0], QuotientSpace([], {}, cm.source.level_dims[1] + 1)]
    with pytest.raises(PreconditionError, match="level 1: the source quotient"):
        induced_map_from(cm, wrong, quotients)


def test_endomorphisms_build_complex_and_quotients_once(monkeypatch, capsys, tmp_path):
    calls = {"build_complex": 0, "cohomology_quotients": 0}
    for name in calls:
        original = getattr(zndiag, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(zndiag, name, counted)
    path = tmp_path / "m.json"
    ident = {"source": [1, 2, 2, 2], "target": [1, 2, 2, 2], "arcs": [[i, i] for i in range(1, 5)]}
    path.write_text(json.dumps(ident))
    assert main(["zmap", "--file", str(path), "--n", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["commutes"] is True
    assert calls == {"build_complex": 1, "cohomology_quotients": 1}
    maps = induced_cohomology_map(torus_two_n(3), identity_morphism((2, 1, 2)))
    assert calls == {"build_complex": 2, "cohomology_quotients": 2}
    assert all(m == GF2Matrix.identity(m.rows) for m in maps)


def _int_rows(m: GF2Matrix) -> list[int]:
    return [sum(bit << j for j, bit in enumerate(row)) for row in m.to_rows()]


def _int_columns(m: GF2Matrix) -> list[int]:
    return [sum(row[j] << i for i, row in enumerate(m.to_rows())) for j in range(m.cols)]


def _naive_mul(a: list[int], b: list[int]) -> list[int]:
    """Rows of a @ b, rows as ints: row i XORs the rows of b that a's row i selects."""
    out = []
    for row in a:
        acc = 0
        for j, brow in enumerate(b):
            if row >> j & 1:
                acc ^= brow
        out.append(acc)
    return out


def _naive_solve(columns: list[int], v: int) -> int | None:
    """A set of columns (bit i for column i) that sums to v, or None."""
    basis = []  # (pivot, vector, combination), each clear at earlier pivots
    for i, c in enumerate(columns):
        comb = 1 << i
        for pivot, b, bc in basis:
            if c >> pivot & 1:
                c, comb = c ^ b, comb ^ bc
        if c:
            basis.append((c.bit_length() - 1, c, comb))
    comb = 0
    for pivot, b, bc in basis:
        if v >> pivot & 1:
            v, comb = v ^ b, comb ^ bc
    return None if v else comb


def reference_commutes(cm) -> bool:
    """Both sides of every square, each product taken in full."""
    for k, d in enumerate(cm.source.differentials):
        lhs = _naive_mul(_int_rows(cm.target.differentials[k]), _int_rows(cm.blocks[k]))
        rhs = _naive_mul(_int_rows(cm.blocks[k + 1]), _int_rows(d))
        if lhs != rhs:
            return False
    return True


def reference_induced(cm, qx, qy) -> list[list[list[int]]]:
    """Every level's induced matrix as rows of bits: each source
    representative's image, solved against the target representatives and
    boundaries, at every level whatever the dimensions."""
    out = []
    for k, block in enumerate(cm.blocks):
        images = _naive_mul(_int_rows(block), _int_rows(qx[k].representatives))
        reps = _int_columns(qy[k].representatives)
        bounds = _int_columns(cm.target.differentials[k - 1]) if k else []
        cols = []
        for q in range(qx[k].dim):
            image = sum((row >> q & 1) << i for i, row in enumerate(images))
            comb = _naive_solve(reps + bounds, image)
            assert comb is not None, "a cycle image left the target cycle space"
            cols.append([comb >> i & 1 for i in range(qy[k].dim)])
        out.append([[col[i] for col in cols] for i in range(qy[k].dim)])
    return out


def test_commutes_and_induced_maps_against_per_level_reference():
    rng = random.Random(46)
    cases = [
        (torus_two_n(2), [(1, 2), (2, 1), (2, 2)]),
        (torus_two_n(3), [(1, 2, 2), (2, 2, 1), (1, 1, 2)]),
        (random_diagram(4, random.Random(40)), [(1, 2, 2, 1), (2, 2, 1, 1), (1, 2, 1, 1)]),
    ]
    seen = {"even_dot": 0, "zero_source": 0, "zero_target": 0, "zero_both": 0, "broken": 0}
    trials = 0
    for d, pool in cases:
        complexes = {x: build_complex(d, x) for x in pool}
        quotients = {x: cohomology_quotients(complexes[x]) for x in pool}
        for t in range(14):
            x, y = rng.choice(pool), rng.choice(pool)
            m = random_morphism(rng, x, y)
            if t % 4 == 0:
                m = dataclasses.replace(m, dots=m.dots + (2,))
            cm = chain_map(d, m, source_complex=complexes[x], target_complex=complexes[y])
            assert cm.commutes() and reference_commutes(cm)
            got = induced_map_from(cm, quotients[x], quotients[y])
            assert [g.to_rows() for g in got] == reference_induced(cm, quotients[x], quotients[y])
            # one flipped bit, which usually breaks a square
            k = rng.randrange(len(cm.blocks))
            block = cm.blocks[k]
            if block.rows and block.cols:
                ints = list(block.ints)
                ints[rng.randrange(block.rows)] ^= 1 << rng.randrange(block.cols)
                flipped = cm.blocks[:k] + (GF2Matrix(block.rows, block.cols, ints),) + cm.blocks[k + 1 :]
                broken = dataclasses.replace(cm, blocks=flipped)
                assert broken.commutes() == reference_commutes(broken)
                seen["broken"] += not reference_commutes(broken)
            seen["even_dot"] += m.sphere_factor() == 0
            for qx, qy in zip(quotients[x], quotients[y]):
                seen["zero_source"] += qx.dim == 0 < qy.dim
                seen["zero_target"] += qy.dim == 0 < qx.dim
                seen["zero_both"] += qx.dim == qy.dim == 0
            trials += 1
    assert trials == 42 and all(seen.values()), seen
