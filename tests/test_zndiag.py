import dataclasses
import json
import random

import pytest

from vandercomplex import (
    CompositionError,
    ConsistencyError,
    FormatError,
    MembershipError,
    PreconditionError,
    QuotientSpace,
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
    assert all(b.is_zero() for b in cm.blocks)
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
    assert all(b.is_zero() for b in chain_map(d, killed).blocks)


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
    assert not cm.source.differentials[0].column(0).is_zero()  # e0 is not a cycle
    bad_block = GF2Matrix.from_triplets(4, 4, [(0, j) for j in range(4)])
    mangled = type(cm)(cm.morphism, cm.source, cm.target, (bad_block, cm.blocks[1]))
    assert not mangled.commutes()
    with pytest.raises(ConsistencyError, match="cycle image"):
        induced_map_from(mangled)


def nullspace_quotients(cx):
    """The quotients from each level's kernel basis and the previous
    differential's columns, each reduced separately."""
    top = cx.max_rank
    out = []
    for k in range(top + 1):
        kernel = cx.differentials[k] if k < top else GF2Matrix.zeros(0, cx.level_dims[k])
        boundaries = cx.differentials[k - 1].columns() if k > 0 else []
        out.append(QuotientSpace(kernel.nullspace_basis(), boundaries, cx.level_dims[k]))
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
            kernel = (
                cx.differentials[k].nullspace_basis()
                if k < cx.max_rank
                else [GF2Matrix.identity(dim).column(j) for j in range(dim)]
            )
            picks = [[rng.random() < 0.5 for _ in kernel] for _ in range(6)]
            cycles = GF2Matrix.from_rows(
                [[sum(p and v.get(i) for p, v in zip(pick, kernel)) % 2 for pick in picks] for i in range(dim)]
            )
            assert q.coordinates(cycles) == r.coordinates(cycles)
            if k < cx.max_rank and any(not c.is_zero() for c in cx.differentials[k].columns()):
                with pytest.raises(MembershipError):
                    q.coordinates(GF2Matrix.identity(dim))


def test_cohomology_quotients_reject_corrupted_differential():
    # flip one bit of d^1 in a row of d^0's image, so d^1 d^0 != 0: the
    # boundaries of level 1 leave its cycle space
    cx = build_complex(torus_two_n(3), (1, 2, 2))
    d0, d1, *rest = cx.differentials
    c = next(i for i, row in enumerate(d0.to_rows()) if any(row))
    bits = d1.to_bool_array()
    bits[0, c] ^= True
    bad = GF2Matrix.from_bool_array(bits)
    assert not bad.compose_is_zero(d0)
    corrupted = dataclasses.replace(cx, differentials=(d0, bad, *rest))
    with pytest.raises(MembershipError, match="not in the span of the cycles"):
        cohomology_quotients(corrupted)
