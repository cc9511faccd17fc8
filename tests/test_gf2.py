import random

import numpy as np
import pytest

from vandercomplex import MembershipError, ValidationError, build_complex, torus_two_n
from vandercomplex import gf2
from vandercomplex.errors import SizeError
from vandercomplex.gf2 import GF2Matrix, QuotientSpace


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
    return GF2Matrix(rows, cols, [sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows)])


def bits_int(bits):
    """0/1 entries as one int, bit j being bits[j]."""
    return sum(b << j for j, b in enumerate(bits))


def from_rows(rows, cols):
    """A matrix from lists of 0/1 entries, through from_triplets."""
    return GF2Matrix.from_triplets(len(rows), cols, [(i, j) for i, r in enumerate(rows) for j, b in enumerate(r) if b])


def kernel(m):
    """The kernel basis that reduce_columns gives, as ints."""
    return gf2.reduce_columns(m)[0]


def as_columns(vectors, n):
    """An n-row matrix whose columns are the given ints."""
    return GF2Matrix(n, len(vectors), [sum((v >> i & 1) << k for k, v in enumerate(vectors)) for i in range(n)])


def table(boundaries):
    """The insertion table of boundary ints, as QuotientSpace takes it."""
    out = {}
    for v in boundaries:
        gf2._insert(out, v)
    return out


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
    assert GF2Matrix(4, 7).rank() == 0
    assert GF2Matrix(2, 2, [0b11, 0b11]).rank() == 1


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
    m = GF2Matrix(2, 3, [0b011, 0b110])
    before = m.words.copy()
    m.rank()
    assert np.array_equal(m.words, before)


def test_nullspace_examples():
    assert kernel(GF2Matrix(1, 2, [0b11])) == [0b11]
    assert kernel(GF2Matrix.identity(5)) == []
    assert kernel(GF2Matrix(2, 3)) == [0b001, 0b010, 0b100]
    # exact vectors, not just the kernel property
    rng = random.Random(7)
    for rows, cols in SHAPES:
        for density in (0.05, 0.5):
            m = random_matrix(rng, rows, cols, density)
            basis = kernel(m)
            assert basis == [bits_int(v) for v in naive_nullspace(m.to_rows(), cols)]
            assert all(0 < v < 1 << cols for v in basis)


def test_nullspace_properties():
    rng = random.Random(3)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 40), rng.randint(1, 40))
        basis = kernel(m)
        assert m.cols == m.rank() + len(basis)
        # basis vectors lie in the kernel and are independent
        stacked = GF2Matrix(len(basis), m.cols, basis)
        assert not any((m @ stacked.transpose()).ints)
        assert stacked.rank() == len(basis)


def test_matmul_against_naive():
    rng = random.Random(4)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
        b = random_matrix(rng, a.cols, rng.randint(1, 30))
        assert (a @ b).to_rows() == naive_mul(a.to_rows(), b.to_rows())
        # all-zero factors that are not empty, on either side and both
        za, zb = GF2Matrix(a.rows, a.cols), GF2Matrix(b.rows, b.cols)
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
    # columns are the table that inserting the columns as boundaries builds:
    # over the whole space, a quotient on that table matches the row-by-row
    # reference quotient by m's columns
    rng = random.Random(17)
    for i, (rows, cols) in enumerate(SHAPES + [(40, 90), (90, 40)]):
        m = random_matrix(rng, rows, cols, (0.05, 0.3, 0.7)[i % 3])
        basis, boundaries = gf2.reduce_columns(m)
        naive = naive_nullspace(m.to_rows(), cols)
        assert basis == [bits_int(v) for v in naive]
        ours = QuotientSpace([1 << j for j in range(rows)], boundaries, rows)
        bits = m.to_rows()
        columns = [[row[j] for row in bits] for j in range(cols)]
        whole = GF2Matrix.identity(rows).to_rows()
        reps, coordinates = naive_quotient(whole, columns)
        assert ours.dim == len(reps)
        assert ours.representatives.transpose().to_rows() == reps
        probes = random_matrix(rng, rows, 5)
        columns = [[row[j] for row in probes.to_rows()] for j in range(5)]
        assert ours.coordinates(probes).transpose().to_rows() == [coordinates(v) for v in columns]


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
    a = GF2Matrix(2, 2, [0b11, 0])
    b = GF2Matrix(2, 2, [0b01, 0b01])
    assert a.compose_is_zero(b)
    assert not a.compose_is_zero(GF2Matrix.identity(2))
    for check in (a.compose_is_zero, a.__matmul__):
        with pytest.raises(ValidationError, match=r"^shape mismatch: 2x2 @ 3x3$"):
            check(GF2Matrix.identity(3))
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
    assert a.compose_is_zero(GF2Matrix(1, 2000))
    assert GF2Matrix(2000, 1).compose_is_zero(ones)


def test_product_with_a_zero_left_factor_returns_at_once(monkeypatch):
    def no_product(a, b):
        raise AssertionError("the product was computed")

    monkeypatch.setattr(gf2, "_product_rows", no_product)
    b = random_matrix(random.Random(23), 65, 70, 0.5)
    assert GF2Matrix(9, 65) @ b == GF2Matrix(9, 70)
    assert GF2Matrix(0, 65) @ b == GF2Matrix(0, 70)
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
    assert a @ GF2Matrix(65, 9) == GF2Matrix(70, 9)
    assert a @ GF2Matrix(65, 0) == GF2Matrix(70, 0)
    with pytest.raises(ValidationError):
        a @ GF2Matrix(64, 9)  # the shape is checked first
    monkeypatch.setattr(gf2, "MAX_MATRIX_BYTES", 64)
    with pytest.raises(SizeError):
        a @ GF2Matrix(65, 9)  # and then the byte ceiling


def test_from_triplets_duplicates_cancel():
    m = GF2Matrix.from_triplets(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert m.to_rows() == [[0, 0], [1, 0]]
    assert m @ GF2Matrix(2, 2, [0b11, 0b10]) == GF2Matrix(2, 2, [0, 0b11])
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
@pytest.mark.parametrize(
    "as_array, message",
    # an integer array is refused for its numpy integers, before any range is read
    [(False, "triplet coordinate out of range"), (True, "coords must be integers, got int64")],
    ids=["pairs", "array"],
)
def test_from_triplets_refuses_out_of_range(pairs, as_array, message):
    coords = np.array(pairs, dtype=np.int64) if as_array else pairs
    with pytest.raises(ValidationError, match=f"^{message}$"):
        GF2Matrix.from_triplets(2, 2, coords)


def test_submatrix_and_bool_round_trip():
    rng = random.Random(5)
    m = random_matrix(rng, 9, 70)
    bits = m.to_bool_array()
    assert bits.shape == (9, 70) and bits.astype(int).tolist() == m.to_rows()
    assert from_rows(bits.tolist(), 70) == m
    sub = m.submatrix(2, 7, 3, 69)
    assert sub.to_rows() == [row[3:69] for row in m.to_rows()[2:7]]


def test_column_row_access():
    m = GF2Matrix(2, 3, [0b101, 0b110])
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
    assert m.transpose().to_rows() == [[1, 0], [0, 1], [1, 1]]
    assert m.get(1, 1) == 1 and m.get(1, 0) == 0
    rng = random.Random(8)
    for rows, cols in SHAPES:
        m = random_matrix(rng, rows, cols)
        bits = m.to_rows()
        assert_padding_clear(m.words, cols)
        assert bits == [[m.get(i, j) for j in range(cols)] for i in range(rows)]
        assert from_rows(bits, cols) == m
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.to_rows() == [[row[j] for row in bits] for j in range(cols)]
        assert_padding_clear(t.words, rows)
        ident = GF2Matrix.identity(cols)
        assert ident.to_rows() == [[int(i == j) for j in range(cols)] for i in range(cols)]
        assert_padding_clear(ident.words, cols)


def test_coset_coordinates_trivial_quotient():
    q = QuotientSpace([0b0001, 0b0010, 0b0100, 0b1000], {}, 4)
    assert q.coordinates(as_columns([0b1101], 4)).to_rows() == [[1], [0], [1], [1]]


def test_coset_coordinates_boundary_class_vanishes():
    q = QuotientSpace([0b011, 0b110, 0b101], table([0b011]), 3)
    assert not any(q.coordinates(as_columns([0b011], 3)).ints)


def test_coset_coordinates_zero_quotient():
    q = QuotientSpace([0b11], table([0b11]), 2)
    coords = q.coordinates(as_columns([0b11], 2))
    assert (coords.rows, coords.cols) == (0, 1)


def test_coset_membership_error():
    cycles = [0b011]
    with pytest.raises(MembershipError):
        QuotientSpace(cycles, {}, 3).coordinates(as_columns([0b100], 3))
    # a boundary outside the cycle span is also rejected
    with pytest.raises(MembershipError):
        QuotientSpace(cycles, table([0b001]), 3)


def test_quotient_space_consistency():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 24)
        m = random_matrix(rng, rng.randint(1, 20), n)
        cycles = kernel(m)
        if not cycles:
            continue
        k = rng.randint(0, len(cycles))
        boundaries = cycles[:k]
        q = QuotientSpace(cycles, table(boundaries), n)
        assert q.dim == len(cycles) - GF2Matrix(k, n, boundaries).rank()
        # each representative has the coordinates of its own class alone
        assert q.coordinates(q.representatives) == GF2Matrix.identity(q.dim)
    # against the row-by-row reference, dependent inputs and word-boundary widths
    for n in WIDTHS[1:]:
        cycles = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 12))]
        cycles += [[a ^ b for a, b in zip(cycles[0], cycles[-1])]]
        boundaries = [
            [sum(bits) % 2 for bits in zip(*rng.sample(cycles, rng.randint(1, len(cycles))))]
            for _ in range(rng.randint(0, 4))
        ]
        reps, coordinates = naive_quotient(cycles, boundaries)
        q = QuotientSpace([bits_int(v) for v in cycles], table(map(bits_int, boundaries)), n)
        assert q.dim == len(reps)
        assert q.representatives.transpose().to_rows() == reps
        probes = [[rng.randint(0, 1) for _ in range(n)] for _ in range(6)] + [
            [sum(bits) % 2 for bits in zip(*rng.sample(cycles, rng.randint(1, len(cycles))))]
            for _ in range(6)
        ]
        inside = [v for v in probes if coordinates(v) is not None]
        for v in probes:
            if coordinates(v) is None:
                with pytest.raises(MembershipError):
                    q.coordinates(as_columns([bits_int(v)], n))
            else:
                assert q.coordinates(as_columns([bits_int(v)], n)).transpose().to_rows() == [coordinates(v)]
        batch = q.coordinates(as_columns([bits_int(v) for v in inside], n))
        assert batch.transpose().to_rows() == [coordinates(v) for v in inside]


def test_matrix_get_outside_the_shape_raises():
    m = GF2Matrix(1, 3, [0b101])
    with pytest.raises(ValidationError, match=r"^column 5 is out of range for a 1x3 matrix$"):
        m.get(0, 5)
    with pytest.raises(ValidationError, match=r"^row 1 is out of range for a 1x3 matrix$"):
        m.get(1, 0)
    # a negative index is not read from the end of the row
    wide = GF2Matrix(1, 64, [(1 << 64) - 1])
    with pytest.raises(ValidationError, match=r"^column -1 is out of range for a 1x64 matrix$"):
        wide.get(0, -1)
    assert wide.get(0, 63) == 1
    # an index must be a Python int: numpy integers, floats and bools are refused
    for i in (np.int64(0), 0.0, True):
        with pytest.raises(ValidationError, match=r"^row .+ is out of range for a 1x3 matrix$"):
            m.get(i, 0)


def test_matrix_row_outside_the_shape_raises():
    m = GF2Matrix(1, 3, [0b101])
    for i in (1, 3, -1):
        with pytest.raises(ValidationError, match=rf"^row {i} is out of range for a 1x3 matrix$"):
            m.get(i, 0)
    for r0, r1 in ((0, 2), (-1, 1), (1, 0)):
        with pytest.raises(ValidationError, match=r"^submatrix range out of bounds$"):
            m.submatrix(r0, r1, 0, 3)
    assert m.submatrix(0, 1, 0, 3) == m


def test_matrix_column_outside_the_shape_raises():
    m = GF2Matrix(1, 3, [0b101])
    for j in (3, 10, -1):
        with pytest.raises(ValidationError, match=rf"^column {j} is out of range for a 1x3 matrix$"):
            m.get(0, j)
    for c0, c1 in ((0, 4), (-1, 2), (2, 1)):
        with pytest.raises(ValidationError, match=r"^submatrix range out of bounds$"):
            m.submatrix(0, 1, c0, c1)
    assert m.submatrix(0, 1, 2, 3).to_rows() == [[1]]


@pytest.mark.parametrize(
    "coords, kind",
    [
        pytest.param([(0.9, 1.5)], "float", id="floats"),
        pytest.param([(True, 1)], "bool", id="bool-row"),
        pytest.param([(0, 1), (1, False)], "bool", id="bool-column"),
        pytest.param(np.array([[0.0, 1.0]]), "float64", id="float-array"),
        pytest.param(np.array([[True, False]]), "bool", id="bool-array"),
    ],
)
def test_from_triplets_refuses_non_integers(coords, kind):
    with pytest.raises(ValidationError, match=rf"^coords must be integers, got {kind}$"):
        GF2Matrix.from_triplets(2, 2, coords)


def test_from_triplets_refuses_numpy_integers_and_arrays():
    for coords, kind in (
        ([(np.int64(0), 1)], "int64"),
        ([(0, 1), (1, np.uint8(0))], "uint8"),
        (np.array([(0, 1), (1, 0)], dtype=np.int64), "int64"),
        (np.array([(0, 1)], dtype=np.int32), "int32"),
        (np.array([(0, 1)], dtype=np.uint64), "uint64"),
    ):
        with pytest.raises(ValidationError, match=rf"^coords must be integers, got {kind}$"):
            GF2Matrix.from_triplets(2, 2, coords)
    assert GF2Matrix.from_triplets(2, 2, [(0, 1), (1, 0)]) == GF2Matrix(2, 2, [0b10, 0b01])


def test_matmul_with_a_non_matrix_raises_type_error():
    m = GF2Matrix(2, 2)
    for other in (3, None, [[1, 0], [0, 1]]):
        with pytest.raises(TypeError):
            m @ other
        with pytest.raises(TypeError, match=r"^compose_is_zero needs a GF2Matrix, got "):
            m.compose_is_zero(other)
    with pytest.raises(TypeError):
        3 @ m


def random_row_ints(rng, rows, cols):
    """Row ints below 1 << cols, each a zero row, one bit, the top bit
    alone, a sparse row or a dense one."""
    draws = (
        lambda: 0,
        lambda: 1 << rng.randrange(cols),
        lambda: 1 << cols - 1,
        lambda: rng.getrandbits(cols) & rng.getrandbits(cols) & rng.getrandbits(cols),
        lambda: rng.getrandbits(cols),
    )
    return [rng.choice(draws if cols else draws[:1])() for _ in range(rows)]


def naive_transpose_ints(ints, width):
    """Entry b has bit i set iff ints[i] has bit b set, read bit by bit."""
    return [sum((x >> b & 1) << i for i, x in enumerate(ints)) for b in range(width)]


def naive_product_ints(a, b, cols):
    """Entry (i, j) of the product as the parity of row i of a and column j of b."""
    columns = naive_transpose_ints(b, cols)
    return [sum((bin(x & c).count("1") & 1) << j for j, c in enumerate(columns)) for x in a]


# (rows, inner, cols) of two factors: no rows, no inner entries and no
# columns, single entries, the 64-bit word boundary, and rows of 1,000 bits
# on the left and on the right
KERNEL_SHAPES = [
    (0, 5, 7), (5, 0, 7), (5, 7, 0), (0, 0, 0), (1, 1, 1),
    (9, 64, 65), (7, 65, 130), (3, 1000, 200), (40, 200, 1000),
]


def test_kernels_match_naive_references_on_random_row_ints():
    rng = random.Random(20)
    for rows, inner, cols in KERNEL_SHAPES:
        for _ in range(4):
            a = GF2Matrix(rows, inner, random_row_ints(rng, rows, inner))
            b = GF2Matrix(inner, cols, random_row_ints(rng, inner, cols))
            product = naive_product_ints(a.ints, b.ints, cols)
            assert gf2._product_rows(a.ints, b.ints) == product
            assert (a @ b).ints == product
            assert a.compose_is_zero(b) == (not any(product))
            assert gf2._transpose(a.ints, inner) == naive_transpose_ints(a.ints, inner)
            assert gf2._transpose(b.ints, cols) == naive_transpose_ints(b.ints, cols)
            # a left factor that selects only zero rows of b composes to
            # zero; one more bit in its last row, on a nonzero row of b, does not
            zero_rows = sum(1 << k for k, y in enumerate(b.ints) if not y)
            quiet = GF2Matrix(rows, inner, [x & zero_rows for x in a.ints])
            assert quiet.compose_is_zero(b) and not any((quiet @ b).ints)
            nonzero = [k for k, y in enumerate(b.ints) if y]
            if rows and nonzero:
                last = GF2Matrix(rows, inner, quiet.ints[:-1] + [quiet.ints[-1] | 1 << rng.choice(nonzero)])
                assert not last.compose_is_zero(b)
                assert (last @ b).ints == naive_product_ints(last.ints, b.ints, cols)


def test_constructor_checks_the_row_count():
    with pytest.raises(ValidationError, match=r"^2 rows but 3 row ints$"):
        GF2Matrix(2, 2, [0, 1, 0])
    with pytest.raises(ValidationError, match=r"^3 rows but 0 row ints$"):
        GF2Matrix(3, 5, [])


@pytest.mark.parametrize(
    "ints, match",
    [
        pytest.param([4, 0], r"^row 0 has bit 2 set, past length 2$", id="bit-past-the-columns"),
        pytest.param([0, -1], r"^row 1 is a negative int$", id="negative"),
        pytest.param(["a", 0], r"^row 0 must be an int, got str$", id="not-an-int"),
        pytest.param([1, True], r"^row 1 must be an int, got bool$", id="bool"),
        pytest.param([np.int64(1), 0], r"^row 0 must be an int, got int64$", id="numpy-integer"),
    ],
)
def test_constructor_refuses_bad_row_ints(ints, match):
    with pytest.raises(ValidationError, match=match):
        GF2Matrix(2, 2, ints)


def test_matrices_built_inside_the_package_skip_the_row_check(monkeypatch):
    a, b = GF2Matrix(2, 3, [0b011, 0b110]), GF2Matrix(3, 2, [0b01, 0b11, 0b10])
    q = QuotientSpace([0b011, 0b110], {0b001: 0b101}, 3)  # the table of the boundary 0b101

    def refuse(*args):
        raise AssertionError("a matrix built inside the package ran the row check")

    monkeypatch.setattr(gf2, "_check_vectors", refuse)
    assert (a @ b).ints == [0b10, 0b01]
    assert a.transpose().ints == [0b01, 0b11, 0b10]
    assert a.submatrix(0, 2, 1, 3).ints == [0b01, 0b11]
    assert GF2Matrix.from_triplets(2, 2, [(0, 1), (1, 0)]).ints == [0b10, 0b01]
    assert q.coordinates(b).ints == [0b11]
    build_complex(torus_two_n(3), (2, 1, 2))  # assembled levels


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: GF2Matrix(True, 2), r"^row count must be an integer, got True$", id="bool-rows"),
        pytest.param(lambda: GF2Matrix(2.0, 2), r"^row count must be an integer, got 2\.0$", id="float-rows"),
        pytest.param(lambda: GF2Matrix("2", 2), r"^row count must be an integer, got '2'$", id="str-rows"),
        pytest.param(lambda: GF2Matrix(2, -1), r"^column count must be nonnegative, got -1$", id="negative-cols"),
        pytest.param(lambda: GF2Matrix.identity(2.0), r"^identity size must be an integer, got 2\.0$", id="identity-float"),
        pytest.param(lambda: GF2Matrix.identity(-1), r"^identity size must be nonnegative, got -1$", id="identity-negative"),
        pytest.param(
            lambda: GF2Matrix.from_triplets(2.0, 2, []), r"^row count must be an integer, got 2\.0$", id="triplets-float"
        ),
        pytest.param(
            lambda: GF2Matrix.from_triplets(2, None, [(0, 0)]), r"^column count must be an integer, got None$", id="triplets-none"
        ),
        pytest.param(
            lambda: GF2Matrix.identity(2).submatrix(0, 1, 0, 1.5),
            r"^submatrix bound must be an integer, got 1\.5$",
            id="submatrix-fraction",
        ),
        pytest.param(
            lambda: GF2Matrix.identity(2).submatrix(0, 1.0, 0, 1),
            r"^submatrix bound must be an integer, got 1\.0$",
            id="submatrix-whole-float",
        ),
    ],
)
def test_shapes_and_bounds_are_nonfloat_integers(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_shapes_and_bounds_take_numpy_integers():
    assert GF2Matrix(np.int64(2), np.uint8(3)).to_rows() == [[0, 0, 0], [0, 0, 0]]
    assert GF2Matrix.identity(np.int64(2)).submatrix(np.int64(0), 1, 0, np.int32(2)).to_rows() == [[1, 0]]
