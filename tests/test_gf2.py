import random

import numpy as np
import pytest

from vandercomplex import MembershipError, ValidationError
from vandercomplex import gf2
from vandercomplex.errors import SizeError
from vandercomplex.gf2 import GF2Matrix, GF2Vector, QuotientSpace


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
    # word-boundary widths, zero rows, sparse, dense and repeated rows
    for rows, cols in SHAPES:
        for density in (0.05, 0.5, 1.0):
            m = random_matrix(rng, rows, cols, density)
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
        # basis vectors lie in the kernel and are independent
        if basis:
            stacked = GF2Matrix.from_rows([v.to_bits() for v in basis])
            assert (m @ stacked.transpose()).is_zero()
            assert stacked.rank() == len(basis)


def test_matmul_against_naive():
    rng = random.Random(4)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
        b = random_matrix(rng, a.cols, rng.randint(1, 30))
        assert (a @ b).to_rows() == naive_mul(a.to_rows(), b.to_rows())
        # all-zero factors that are not empty, on either side and both
        za, zb = GF2Matrix.zeros(a.rows, a.cols), GF2Matrix.zeros(b.rows, b.cols)
        for left, right in ((za, b), (a, zb), (za, zb)):
            assert (left @ right).to_rows() == naive_mul(left.to_rows(), right.to_rows())
    # word-boundary widths, zero rows, sparse and dense left factors
    for i, (rows, inner) in enumerate(SHAPES):
        cols = WIDTHS[i % len(WIDTHS)]
        a = random_matrix(rng, rows, inner, (0.02, 0.5, 1.0)[i % 3])
        b = random_matrix(rng, inner, cols)
        prod = a @ b
        assert (prod.rows, prod.cols) == (rows, cols)
        assert prod.to_rows() == (naive_mul(a.to_rows(), b.to_rows()) if inner else [[0] * cols] * rows)
        assert_padding_clear(prod.words, cols)


def test_reduce_columns_against_nullspace_and_boundary_table():
    # the vanishing columns' tags are the kernel basis, and the stored
    # columns are the table a quotient builds from the columns as boundaries
    rng = random.Random(17)
    for i, (rows, cols) in enumerate(SHAPES + [(40, 90), (90, 40)]):
        m = random_matrix(rng, rows, cols, (0.05, 0.3, 0.7)[i % 3])
        kernel, table = gf2.reduce_columns(m)
        naive = naive_nullspace(m.to_rows(), cols)
        assert kernel == [sum(bit << j for j, bit in enumerate(v)) for v in naive]
        whole = [1 << j for j in range(rows)]
        ours = QuotientSpace(whole, table, rows)
        ref = QuotientSpace(map(GF2Vector.from_bits, np.eye(rows, dtype=int).tolist()), m.columns(), rows)
        assert ours.dim == ref.dim and ours.representatives == ref.representatives
        probes = random_matrix(rng, rows, 5)
        assert ours.coordinates(probes) == ref.coordinates(probes)


def kernel_columns(rng, a, cols):
    """An a.cols-by-cols matrix whose columns are random sums of a's kernel
    vectors (from the naive reference), so that a @ it is zero."""
    kernel = naive_nullspace(a.to_rows(), a.cols)
    columns = [[0] * a.cols for _ in range(cols)]
    for c in columns:
        for v in kernel:
            if rng.random() < 0.5:
                c[:] = [x ^ y for x, y in zip(c, v)]
    bits = [(i, j) for j, c in enumerate(columns) for i, bit in enumerate(c) if bit]
    return GF2Matrix.from_triplets(a.cols, cols, bits)


def test_compose_is_zero():
    a = GF2Matrix.from_rows([[1, 1], [0, 0]])
    b = GF2Matrix.from_rows([[1, 0], [1, 0]])
    assert a.compose_is_zero(b)
    assert not a.compose_is_zero(GF2Matrix.identity(2))
    with pytest.raises(ValidationError):
        a.compose_is_zero(GF2Matrix.identity(3))
    # against the naive product, at word-boundary widths and zero rows, on
    # random right factors and on right factors built from the kernel
    rng = random.Random(18)
    for i, (rows, inner) in enumerate(SHAPES):
        cols = WIDTHS[i % len(WIDTHS)]
        a = random_matrix(rng, rows, inner, (0.02, 0.5, 1.0)[i % 3])
        for b in (random_matrix(rng, inner, cols, 0.1), kernel_columns(rng, a, cols)):
            expected = not any(map(any, naive_mul(a.to_rows(), b.to_rows())))
            assert a.compose_is_zero(b) == expected


def test_compose_is_zero_past_the_byte_ceiling(monkeypatch):
    # both factors fit the ceiling, their whole product would not; the
    # check still answers
    monkeypatch.setattr(gf2, "MAX_MATRIX_BYTES", 20_000)
    a = GF2Matrix.from_triplets(2000, 1, [(i, 0) for i in range(2000)])
    ones = GF2Matrix.from_triplets(1, 2000, [(0, j) for j in range(2000)])
    with pytest.raises(SizeError):
        a @ ones
    assert not a.compose_is_zero(ones)
    assert a.compose_is_zero(GF2Matrix.zeros(1, 2000))
    assert GF2Matrix.zeros(2000, 1).compose_is_zero(ones)


def test_product_with_a_zero_left_factor_returns_at_once(monkeypatch):
    def no_product(a, b):
        raise AssertionError("the product was computed")

    monkeypatch.setattr(gf2, "_product_rows", no_product)
    b = random_matrix(random.Random(23), 65, 70, 0.5)
    assert GF2Matrix(9, 65) @ b == GF2Matrix.zeros(9, 70)
    assert GF2Matrix(0, 65) @ b == GF2Matrix.zeros(0, 70)
    with pytest.raises(ValidationError):
        GF2Matrix(9, 64) @ b  # the shape is checked first
    monkeypatch.setattr(gf2, "MAX_MATRIX_BYTES", 64)
    with pytest.raises(SizeError):
        GF2Matrix(9, 65) @ b  # and then the byte ceiling


def test_product_with_a_zero_right_factor_returns_at_once(monkeypatch):
    def no_product(a, b):
        raise AssertionError("the product was computed")

    monkeypatch.setattr(gf2, "_product_rows", no_product)
    a = random_matrix(random.Random(19), 70, 65, 0.5)
    assert a @ GF2Matrix(65, 9) == GF2Matrix.zeros(70, 9)
    assert a @ GF2Matrix(65, 0) == GF2Matrix.zeros(70, 0)
    with pytest.raises(ValidationError):
        a @ GF2Matrix(64, 9)  # the shape is checked first
    monkeypatch.setattr(gf2, "MAX_MATRIX_BYTES", 64)
    with pytest.raises(SizeError):
        a @ GF2Matrix(65, 9)  # and then the byte ceiling


def test_from_triplets_duplicates_cancel():
    m = GF2Matrix.from_triplets(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert m.to_rows() == [[0, 0], [1, 0]]
    assert m @ GF2Matrix.from_rows([[1, 1], [0, 1]]) == GF2Matrix.from_rows([[0, 0], [1, 1]])
    rng = random.Random(16)
    coords = [(rng.randrange(65), rng.randrange(70)) for _ in range(300)]
    big = GF2Matrix.from_triplets(65, 70, coords)
    c = random_matrix(rng, 70, 9)
    assert (big @ c).to_rows() == naive_mul(big.to_rows(), c.to_rows())
    with pytest.raises(ValidationError):
        GF2Matrix.from_triplets(2, 2, [(2, 0)])


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([(-1, 0)], id="negative-row"),  # Python would index row 1
        pytest.param([(0, 2)], id="column-past-the-end"),  # a bit at or past cols
        pytest.param([(0, 5), (0, 5)], id="cancelling-pair-past-the-end"),
    ],
)
@pytest.mark.parametrize("as_array", [False, True], ids=["pairs", "array"])
def test_from_triplets_refuses_out_of_range(pairs, as_array):
    coords = np.array(pairs, dtype=np.int64) if as_array else pairs
    with pytest.raises(ValidationError, match="^triplet coordinate out of range$"):
        GF2Matrix.from_triplets(2, 2, coords)


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
    assert QuotientSpace(std, []).coordinates(v).to_bits() == [1, 0, 1, 1]


def test_coset_coordinates_boundary_class_vanishes():
    cycles = [GF2Vector.from_bits(b) for b in ([1, 1, 0], [0, 1, 1], [1, 0, 1])]
    boundaries = [GF2Vector.from_bits([1, 1, 0])]
    v = GF2Vector.from_bits([1, 1, 0])
    assert QuotientSpace(cycles, boundaries).coordinates(v).to_bits().count(1) == 0


def test_coset_coordinates_zero_quotient():
    cycles = [GF2Vector.from_bits([1, 1])]
    coords = QuotientSpace(cycles, cycles).coordinates(GF2Vector.from_bits([1, 1]))
    assert coords.n == 0


def test_coset_membership_error():
    cycles = [GF2Vector.from_bits([1, 1, 0])]
    with pytest.raises(MembershipError):
        QuotientSpace(cycles, []).coordinates(GF2Vector.from_bits([0, 0, 1]))
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


def test_matrix_get_outside_the_shape_raises():
    m = GF2Matrix.from_rows([[1, 0, 1]])
    with pytest.raises(ValidationError, match=r"^column 5 is out of range for a 1x3 matrix$"):
        m.get(0, 5)
    with pytest.raises(ValidationError, match=r"^row 1 is out of range for a 1x3 matrix$"):
        m.get(1, 0)
    # a negative index is not read from the end of the row
    wide = GF2Matrix.from_rows([[1] * 64])
    with pytest.raises(ValidationError, match=r"^column -1 is out of range for a 1x64 matrix$"):
        wide.get(0, -1)
    assert wide.get(0, 63) == 1


def test_matrix_row_outside_the_shape_raises():
    m = GF2Matrix.from_rows([[1, 0, 1]])
    for i in (1, 3, -1):
        with pytest.raises(ValidationError, match=rf"^row {i} is out of range for a 1x3 matrix$"):
            m.row(i)
    assert m.row(0).to_bits() == [1, 0, 1]


def test_matrix_column_outside_the_shape_raises():
    m = GF2Matrix.from_rows([[1, 0, 1]])
    for j in (3, 10, -1):
        with pytest.raises(ValidationError, match=rf"^column {j} is out of range for a 1x3 matrix$"):
            m.column(j)
    assert m.column(2).to_bits() == [1]


def test_quotient_representative_outside_the_dimension_raises():
    q = QuotientSpace([1, 2], [], 3)
    assert q.dim == 2
    for k in (2, 5, -1):
        with pytest.raises(ValidationError, match=rf"^class {k} is out of range for a quotient of dimension 2$"):
            q.representative(k)
    assert q.representative(1).to_bits() == [0, 1, 0]


def test_vector_get_outside_the_length_raises():
    v = GF2Vector.from_bits([1, 0, 1])
    for i in (3, 40, -1):
        with pytest.raises(ValidationError, match=rf"^index {i} is out of range for a vector of length 3$"):
            v.get(i)
    assert [v.get(i) for i in range(3)] == [1, 0, 1]


@pytest.mark.parametrize(
    "coords, kind",
    [
        pytest.param([(0.9, 1.5)], "float", id="floats"),
        pytest.param([(True, 1)], "bool", id="bool-row"),
        pytest.param([(0, 1), (1, False)], "bool", id="bool-column"),
        pytest.param(np.array([[0.0, 1.0]]), "float64", id="float-array"),
        pytest.param(np.array([[True, False]]), "bool", id="bool-array"),
        pytest.param(np.array([[0, 1]], dtype=object), "object", id="object-array"),
    ],
)
def test_from_triplets_refuses_non_integers(coords, kind):
    with pytest.raises(ValidationError, match=rf"^coords must be integers, got {kind}$"):
        GF2Matrix.from_triplets(2, 2, coords)


def test_from_triplets_reads_integer_arrays_by_dtype(monkeypatch):
    expected = GF2Matrix.from_triplets(3, 70, [(0, 69), (2, 1), (2, 1), (1, 0)])
    assert GF2Matrix.from_triplets(3, 70, [(np.int64(0), 69), (2, np.uint8(1)), (2, 1), (1, 0)]) == expected

    def scan(*args):
        raise AssertionError("an integer array was scanned entry by entry")

    monkeypatch.setattr(gf2, "_integers", scan)
    for dtype in (np.int64, np.int32, np.uint64):
        coords = np.array([(0, 69), (2, 1), (2, 1), (1, 0)], dtype=dtype)
        assert GF2Matrix.from_triplets(3, 70, coords) == expected


def test_from_rows_and_from_bits_refuse_non_integers():
    for rows, kind in (([[1.5, 0.2]], "float"), ([[1, True]], "bool"), ([[np.float64(1)]], "float64")):
        with pytest.raises(ValidationError, match=rf"^matrix entries must be integers, got {kind}$"):
            GF2Matrix.from_rows(rows)
    with pytest.raises(ValidationError, match=r"^vector entries must be integers, got float$"):
        GF2Vector.from_bits([1, 0.0])
    # integer entries keep their mod-2 reading, numpy integers included
    assert GF2Matrix.from_rows([[3, -1, 2], [np.int64(5), 0, 1 << 70]]).to_rows() == [[1, 1, 0], [1, 0, 0]]
