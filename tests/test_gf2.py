import random

import numpy as np
import pytest

from vandercomplex import MembershipError, ValidationError
from vandercomplex import gf2
from vandercomplex.gf2 import GF2Matrix, GF2Vector, QuotientSpace, coset_coordinates


def naive_rank(rows):
    """Reference rank: textbook elimination on unpacked 0/1 lists."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a ^ b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_mul(a_rows, b_rows):
    out = []
    for row in a_rows:
        acc = [0] * (len(b_rows[0]) if b_rows else 0)
        for k, bit in enumerate(row):
            if bit:
                acc = [(x ^ y) for x, y in zip(acc, b_rows[k])]
        out.append(acc)
    return out


def naive_nullspace(rows, ncols):
    """Reference kernel basis: one vector per free column of the (unique) rref."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [(a ^ b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = rows[r][f]
        basis.append(v)
    return basis


def naive_quotient(cycles, boundaries):
    """Reference quotient: boundaries, then cycles, each reduced by lowest set
    bit against the rows stored so far; returns the representatives and a
    coordinates function (None for a vector outside the cycle span)."""
    table, reps = {}, []

    def reduce(v, coeffs):
        while any(v):
            p = v.index(1)
            if p not in table:
                return v, p
            row, q = table[p]
            v = [a ^ b for a, b in zip(v, row)]
            if q is not None and coeffs is not None:
                coeffs[q] ^= 1
        return None, None

    for v in boundaries:
        red, p = reduce(v, None)
        if red:
            table[p] = (red, None)
    for v in cycles:
        red, p = reduce(v, None)
        if red:
            table[p] = (red, len(reps))
            reps.append(red)

    def coordinates(v):
        coeffs = [0] * len(reps)
        return None if reduce(v, coeffs)[0] else coeffs

    return reps, coordinates


def random_matrix(rng, rows, cols, density=0.5):
    if rows == 0:  # from_rows cannot tell the width of no rows
        return GF2Matrix.zeros(0, cols)
    return GF2Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    )


# Widths at and around the 64-bit word boundary, and the shapes built from
# them (including zero rows), for the tests against naive references.
WIDTHS = (0, 1, 63, 64, 65, 130)
SHAPES = [(r, c) for r in (0, 1, 65) for c in WIDTHS] + [(130, 63), (64, 130)]


def assert_padding_clear(words, width):
    """Bits past `width` in the last word stay zero."""
    words = np.atleast_2d(words)
    assert words.shape[-1] == (width + 63) // 64
    if width % 64:
        assert not (words[:, -1] >> np.uint64(width % 64)).any()


def test_rank_examples():
    assert GF2Matrix.identity(3).rank() == 3
    assert GF2Matrix.zeros(4, 7).rank() == 0
    assert GF2Matrix.from_rows([[1, 1], [1, 1]]).rank() == 1


def test_rank_against_naive_reference():
    rng = random.Random(0)
    for _ in range(30):
        rows, cols = rng.randint(0, 64), rng.randint(1, 64)
        m = random_matrix(rng, rows, cols)
        assert m.rank() == naive_rank(m.to_rows())


def test_rank_transpose_up_to_512():
    rng = random.Random(1)
    for rows, cols in [(512, 300), (128, 511), (65, 64)]:
        m = random_matrix(rng, rows, cols, density=0.2)
        assert m.rank() == m.transpose().rank()


def test_rank_does_not_mutate():
    m = GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    before = m.words.copy()
    m.rank()
    assert np.array_equal(m.words, before)


def test_elimination_deterministic():
    rng = random.Random(2)
    m = random_matrix(rng, 40, 40)
    r1, p1 = m.rref()
    r2, p2 = m.copy().rref()
    assert p1 == p2
    assert np.array_equal(r1.words, r2.words)


def test_nullspace_examples():
    basis = GF2Matrix.from_rows([[1, 1]]).nullspace_basis()
    assert [v.to_bits() for v in basis] == [[1, 1]]
    assert GF2Matrix.identity(5).nullspace_basis() == []
    assert len(GF2Matrix.zeros(2, 3).nullspace_basis()) == 3
    # exact vectors, not just the kernel property
    rng = random.Random(7)
    for rows, cols in SHAPES:
        for density in (0.05, 0.5):
            m = random_matrix(rng, rows, cols, density)
            basis = m.nullspace_basis()
            assert [v.to_bits() for v in basis] == naive_nullspace(m.to_rows(), cols)
            for v in basis:
                assert v.n == cols
                assert_padding_clear(v.words, cols)


def test_nullspace_properties():
    rng = random.Random(3)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 40), rng.randint(1, 40))
        basis = m.nullspace_basis()
        assert m.cols == m.rank() + len(basis)
        for v in basis:
            assert m.mul_vector(v).is_zero()
        # basis vectors are independent: stack them and check full rank
        if basis:
            stacked = GF2Matrix.from_rows([v.to_bits() for v in basis])
            assert stacked.rank() == len(basis)


def test_matmul_and_mul_vector_against_naive(monkeypatch):
    rng = random.Random(4)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
        b = random_matrix(rng, a.cols, rng.randint(1, 30))
        assert (a @ b).to_rows() == naive_mul(a.to_rows(), b.to_rows())
        # all-zero factors that are not empty, on either side and both
        za, zb = GF2Matrix.zeros(a.rows, a.cols), GF2Matrix.zeros(b.rows, b.cols)
        for left, right in ((za, b), (a, zb), (za, zb)):
            assert (left @ right).to_rows() == naive_mul(left.to_rows(), right.to_rows())
        v = GF2Vector.from_bits([rng.randint(0, 1) for _ in range(a.cols)])
        expected = [sum(r * x for r, x in zip(row, v.to_bits())) % 2 for row in a.to_rows()]
        assert a.mul_vector(v).to_bits() == expected
    # word-boundary widths, zero rows, sparse and dense left factors
    for i, (rows, inner) in enumerate(SHAPES):
        cols = WIDTHS[i % len(WIDTHS)]
        a = random_matrix(rng, rows, inner, (0.02, 0.5, 1.0)[i % 3])
        b = random_matrix(rng, inner, cols)
        prod = a @ b
        assert (prod.rows, prod.cols) == (rows, cols)
        assert prod.to_rows() == (naive_mul(a.to_rows(), b.to_rows()) if inner else [[0] * cols] * rows)
        assert_padding_clear(prod.words, cols)
        # the same product in chunks of a few words, rows cut between chunks
        with monkeypatch.context() as patch:
            patch.setattr(gf2, "CHUNK_WORDS", 1)
            assert a @ b == prod
        v = GF2Vector.from_bits([rng.randint(0, 1) for _ in range(inner)])
        image = a.mul_vector(v)
        assert image.to_bits() == [sum(r * x for r, x in zip(row, v.to_bits())) % 2 for row in a.to_rows()]
        assert image.n == rows
        assert_padding_clear(image.words, rows)


def test_matmul_keeps_left_support(monkeypatch):
    # one left factor against right factors of several widths: the first
    # product keeps its support, later ones reuse it or, when it does not
    # fit their chunk, chunk the words again
    rng = random.Random(14)
    lefts = [random_matrix(rng, 65, 130, 0.3), random_matrix(rng, 9, 70, 0.05)]
    lefts += [GF2Matrix.zeros(7, 65), GF2Matrix.zeros(0, 5), GF2Matrix.zeros(4, 0)]
    for a in lefts:
        rights = [random_matrix(rng, a.cols, c) for c in (1, 64, 130, 0)]
        rights += [GF2Matrix.zeros(a.cols, 65)]
        for chunk_words in (gf2.CHUNK_WORDS, 1, gf2.CHUNK_WORDS):
            with monkeypatch.context() as patch:
                patch.setattr(gf2, "CHUNK_WORDS", chunk_words)
                for b in rights:
                    prod = a @ b
                    assert (prod.rows, prod.cols) == (a.rows, b.cols)
                    expected = naive_mul(a.to_rows(), b.to_rows()) if a.cols else [[0] * b.cols] * a.rows
                    assert prod.to_rows() == expected
                    assert_padding_clear(prod.words, b.cols)
        assert a._support is not None


def test_words_read_only_after_product(monkeypatch):
    rng = random.Random(15)
    a = random_matrix(rng, 20, 70)
    b = random_matrix(rng, 70, 10)
    a @ b
    assert not a.words.flags.writeable
    with pytest.raises(ValueError):
        a.words[0, 0] = 1
    with pytest.raises(ValueError):
        a.words ^= a.words
    assert b.words.flags.writeable and (a @ b).words.flags.writeable
    # a left factor too large for one chunk keeps nothing and stays writable
    with monkeypatch.context() as patch:
        patch.setattr(gf2, "CHUNK_WORDS", 1)
        big = random_matrix(rng, 20, 70)
        assert (big @ b).to_rows() == naive_mul(big.to_rows(), b.to_rows())
        assert big.words.flags.writeable


def test_reduce_columns_against_nullspace_and_boundary_table():
    # the vanishing columns' tags are the kernel basis, and the stored
    # columns are the table a quotient builds from the columns as boundaries
    rng = random.Random(17)
    for i, (rows, cols) in enumerate(SHAPES + [(40, 90), (90, 40)]):
        m = random_matrix(rng, rows, cols, (0.05, 0.3, 0.7)[i % 3])
        kernel, table = gf2.reduce_columns(m)
        assert kernel == [sum(1 << j for j in v.support()) for v in m.nullspace_basis()]
        whole = [1 << j for j in range(rows)]
        ours = QuotientSpace(whole, table, rows)
        ref = QuotientSpace(map(GF2Vector.from_bits, np.eye(rows, dtype=int).tolist()), m.columns(), rows)
        assert ours.dim == ref.dim and ours.representatives == ref.representatives
        probes = random_matrix(rng, rows, 5)
        assert ours.coordinates(probes) == ref.coordinates(probes)


def test_compose_is_zero():
    a = GF2Matrix.from_rows([[1, 1], [0, 0]])
    b = GF2Matrix.from_rows([[1, 0], [1, 0]])
    assert a.compose_is_zero(b)
    assert not a.compose_is_zero(GF2Matrix.identity(2))


def test_from_triplets_duplicates_cancel(monkeypatch):
    m = GF2Matrix.from_triplets(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert m.to_rows() == [[0, 0], [1, 0]]
    # kept positions cancel in products too, whether the first product
    # reads them or, past its chunk, the words
    assert m @ GF2Matrix.from_rows([[1, 1], [0, 1]]) == GF2Matrix.from_rows([[0, 0], [1, 1]])
    rng = random.Random(16)
    for chunk_words in (1, gf2.CHUNK_WORDS):
        coords = [(rng.randrange(65), rng.randrange(70)) for _ in range(300)]
        big = GF2Matrix.from_triplets(65, 70, coords)
        c = random_matrix(rng, 70, 9)
        with monkeypatch.context() as patch:
            patch.setattr(gf2, "CHUNK_WORDS", chunk_words)
            assert (big @ c).to_rows() == naive_mul(big.to_rows(), c.to_rows())
        assert not big.words.flags.writeable
    with pytest.raises(ValidationError):
        GF2Matrix.from_triplets(2, 2, [(2, 0)])


def test_submatrix_and_bool_round_trip():
    rng = random.Random(5)
    m = random_matrix(rng, 9, 70)
    assert GF2Matrix.from_bool_array(m.to_bool_array()) == m
    sub = m.submatrix(2, 7, 3, 69)
    assert sub.to_rows() == [row[3:69] for row in m.to_rows()[2:7]]


def test_column_row_access():
    m = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.column(2).to_bits() == [1, 1]
    assert m.row(0).to_bits() == [1, 0, 1]
    assert m.get(1, 1) == 1 and m.get(1, 0) == 0
    rng = random.Random(8)
    for rows, cols in SHAPES:
        m = random_matrix(rng, rows, cols)
        bits = m.to_rows()
        assert_padding_clear(m.words, cols)
        assert bits == [[m.get(i, j) for j in range(cols)] for i in range(rows)]
        assert GF2Matrix.from_rows(bits) == m or rows == 0
        columns = m.columns()
        assert len(columns) == cols
        for j, c in enumerate(columns):
            assert c == m.column(j)
            assert c.to_bits() == [row[j] for row in bits]
            assert_padding_clear(c.words, rows)
        ident = GF2Matrix.identity(cols)
        assert ident.to_rows() == [[int(i == j) for j in range(cols)] for i in range(cols)]
        assert_padding_clear(ident.words, cols)


def test_vector_support_and_bits():
    v = GF2Vector.from_bits([0, 1, 0, 0, 1, 1])
    assert v.support() == [1, 4, 5]
    assert v.lowest_set_bit() == 1
    assert GF2Vector.zeros(70).lowest_set_bit() is None
    rng = random.Random(9)
    for n in WIDTHS:
        bits = [rng.randint(0, 1) for _ in range(n)]
        v = GF2Vector.from_bits(bits)
        assert v.n == n and v.to_bits() == bits
        assert v.support() == [i for i, b in enumerate(bits) if b]
        assert_padding_clear(v.words, n)
        # only the low bit of each entry counts
        assert GF2Vector.from_bits(b + 2 for b in bits) == v


def test_coset_coordinates_trivial_quotient():
    std = [GF2Vector.from_bits(row) for row in GF2Matrix.identity(4).to_rows()]
    v = GF2Vector.from_bits([1, 0, 1, 1])
    assert coset_coordinates(std, [], v).to_bits() == [1, 0, 1, 1]


def test_coset_coordinates_boundary_class_vanishes():
    cycles = [GF2Vector.from_bits(b) for b in ([1, 1, 0], [0, 1, 1], [1, 0, 1])]
    boundaries = [GF2Vector.from_bits([1, 1, 0])]
    v = GF2Vector.from_bits([1, 1, 0])
    assert coset_coordinates(cycles, boundaries, v).to_bits().count(1) == 0


def test_coset_coordinates_zero_quotient():
    cycles = [GF2Vector.from_bits([1, 1])]
    coords = coset_coordinates(cycles, cycles, GF2Vector.from_bits([1, 1]))
    assert coords.n == 0


def test_coset_membership_error():
    cycles = [GF2Vector.from_bits([1, 1, 0])]
    with pytest.raises(MembershipError):
        coset_coordinates(cycles, [], GF2Vector.from_bits([0, 0, 1]))
    # a boundary outside the cycle span is also rejected
    with pytest.raises(MembershipError):
        QuotientSpace(cycles, [GF2Vector.from_bits([1, 0, 0])])


def test_quotient_space_consistency():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 24)
        m = random_matrix(rng, rng.randint(1, 20), n)
        cycles = m.nullspace_basis()
        if not cycles:
            continue
        k = rng.randint(0, len(cycles))
        boundaries = [cycles[i].copy() for i in range(k)]
        q = QuotientSpace(cycles, boundaries)
        assert q.dim == len(cycles) - GF2Matrix.from_rows(
            [v.to_bits() for v in boundaries] or [[0] * n]
        ).rank()
        for idx in range(q.dim):
            coords = q.coordinates(q.representative(idx))
            assert coords.support() == [idx]
    # against the row-by-row reference, dependent inputs and word-boundary widths
    for n in WIDTHS[1:]:
        cycles = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 12))]
        cycles += [[a ^ b for a, b in zip(cycles[0], cycles[-1])]]
        boundaries = [
            [sum(bits) % 2 for bits in zip(*rng.sample(cycles, rng.randint(1, len(cycles))))]
            for _ in range(rng.randint(0, 4))
        ]
        reps, coordinates = naive_quotient(cycles, boundaries)
        q = QuotientSpace(map(GF2Vector.from_bits, cycles), map(GF2Vector.from_bits, boundaries))
        assert q.dim == len(reps)
        assert [q.representative(i).to_bits() for i in range(q.dim)] == reps
        probes = [[rng.randint(0, 1) for _ in range(n)] for _ in range(6)] + [
            [sum(bits) % 2 for bits in zip(*rng.sample(cycles, rng.randint(1, len(cycles))))]
            for _ in range(6)
        ]
        inside = [v for v in probes if coordinates(v) is not None]
        for v in probes:
            if coordinates(v) is None:
                with pytest.raises(MembershipError):
                    q.coordinates(GF2Vector.from_bits(v))
            else:
                assert q.coordinates(GF2Vector.from_bits(v)).to_bits() == coordinates(v)
        batch = q.coordinates(GF2Matrix.from_rows(inside).transpose())
        assert batch.transpose().to_rows() == [coordinates(v) for v in inside]
