import random
from itertools import product

import pytest

from vandercomplex import (
    AlgebraSpec,
    SizeError,
    ValidationError,
    connected_map,
    frobenius_check,
    sphere_scalar,
    tensor_assemble,
)
from vandercomplex import gf2
from vandercomplex.gf2 import GF2Matrix
from vandercomplex.tqft import constant_tensor_index, structure_maps, swap_map


def naive_kron(a_rows, b_rows):
    ra, ca = len(a_rows), len(a_rows[0]) if a_rows else 0
    rb, cb = len(b_rows), len(b_rows[0]) if b_rows else 0
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a_rows[i][j] & b_rows[k][l]
    return out


def apply_to_basis(m, col):
    """Image of a basis column as the set of output indices."""
    return {i for i in range(m.rows) if m.get(i, col)}


def test_connected_map_merge_example():
    m = connected_map(AlgebraSpec(2), 2, 1)
    # e1 (x) e1 -> e1 while e1 (x) e2 dies
    assert apply_to_basis(m, 0) == {0}
    assert apply_to_basis(m, 1) == set()
    assert apply_to_basis(m, 3) == {1}


def test_connected_map_identity():
    for dim in range(1, 9):
        assert connected_map(AlgebraSpec(dim), 1, 1) == GF2Matrix.identity(dim)


def test_connected_map_cap_and_cup():
    cap = connected_map(AlgebraSpec(3), 1, 0)
    assert cap.to_rows() == [[1, 1, 1]]
    cup = connected_map(AlgebraSpec(2), 0, 1)
    assert cup.to_rows() == [[1], [1]]


def test_connected_map_closed_component_rejected():
    with pytest.raises(ValidationError, match="sphere_scalar"):
        connected_map(AlgebraSpec(2), 0, 0)


def test_sphere_scalar_examples_and_oracle():
    assert sphere_scalar(AlgebraSpec(2)) == 0
    assert sphere_scalar(AlgebraSpec(3)) == 1
    assert sphere_scalar(AlgebraSpec(1)) == 1
    for dim in range(1, 9):
        _, unit, _, counit = structure_maps(AlgebraSpec(dim))
        assert (counit @ unit).get(0, 0) == sphere_scalar(AlgebraSpec(dim))


def test_frobenius_check_dims_1_to_8():
    for dim in range(1, 9):
        assert frobenius_check(AlgebraSpec(dim))


def test_frobenius_cap():
    with pytest.raises(SizeError):
        frobenius_check(AlgebraSpec(9))


def test_algebra_spec_validation():
    with pytest.raises(ValidationError):
        AlgebraSpec(0)


def test_connected_composition_law():
    for dim in range(1, 5):
        spec = AlgebraSpec(dim)
        for r in range(1, 5):
            for mid in range(1, 5):
                for l in range(1, 5):
                    composite = connected_map(spec, mid, l) @ connected_map(spec, r, mid)
                    assert composite == connected_map(spec, r, l), (dim, r, mid, l)


def test_connected_map_commutes_with_swap():
    for dim in range(1, 5):
        spec = AlgebraSpec(dim)
        for l in range(3):
            m = connected_map(spec, 2, l)
            assert m @ swap_map(dim) == m


def test_constant_tensor_index():
    assert constant_tensor_index(1, 3, 2) == 7
    assert constant_tensor_index(2, 2, 3) == 8
    assert constant_tensor_index(0, 0, 5) == 0


def test_tensor_assemble_edge_cases():
    m = connected_map(AlgebraSpec(2), 2, 1)
    assert tensor_assemble([m]) == m
    one = GF2Matrix.identity(1)
    assert tensor_assemble([one, one]) == one
    assert tensor_assemble([]) == one


def test_tensor_assemble_pure_tensor_example():
    # id(2) (x) merge(2): e1 (x) e2 (x) e2 -> e1 (x) e2
    m = tensor_assemble([GF2Matrix.identity(2), connected_map(AlgebraSpec(2), 2, 1)])
    col = 0 * 4 + (1 * 2 + 1)
    assert apply_to_basis(m, col) == {0 * 2 + 1}
    # a non-constant right factor dies
    assert apply_to_basis(m, 0 * 4 + (0 * 2 + 1)) == set()


def random_matrix(rng, rows, cols):
    return GF2Matrix(rows, cols, [sum(rng.randint(0, 1) << j for j in range(cols)) for _ in range(rows)])


def test_tensor_assemble_against_naive_kron():
    rng = random.Random(7)
    for _ in range(15):
        ra, ca = rng.randint(1, 4), rng.randint(1, 4)
        rb, cb = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, ra, ca)
        b = random_matrix(rng, rb, cb)
        assert tensor_assemble([a, b]).to_rows() == naive_kron(a.to_rows(), b.to_rows())


def test_tensor_assemble_associative_with_unit():
    rng = random.Random(8)
    mats = [random_matrix(rng, 2, 3) for _ in range(3)]
    a, b, c = mats
    left = tensor_assemble([tensor_assemble([a, b]), c])
    right = tensor_assemble([a, tensor_assemble([b, c])])
    flat = tensor_assemble([a, b, c])
    assert left == right == flat
    assert tensor_assemble([GF2Matrix.identity(1), a]) == a
    assert tensor_assemble([a, GF2Matrix.identity(1)]) == a


def test_tensor_assemble_budget():
    big = GF2Matrix.identity(64)
    with pytest.raises(SizeError, match="64x64"):
        tensor_assemble([big] * 5)


def test_connected_map_over_the_byte_ceiling_is_refused_before_building():
    # 2^40 rows would be allocated before any coordinate is placed
    with pytest.raises(SizeError, match=r"^1099511627776x1099511627776 matrix needs .* byte ceiling$"):
        connected_map(AlgebraSpec(2), 40, 40)


# A coordinate-list reference: each map as the set of its (row, col)
# positions, built from the closed forms, and the Kronecker product as
# every pair of positions, independent of the row-integer builders.


def positions(m):
    return m.rows, m.cols, {(i, j) for i, x in enumerate(m.ints) for j in range(m.cols) if x >> j & 1}


def reference_connected(d, r, l):
    return d**l, d**r, {(constant_tensor_index(a, l, d), constant_tensor_index(a, r, d)) for a in range(d)}


def reference_kron(factors):
    rows, cols, coords = 1, 1, {(0, 0)}
    for f in factors:
        fr, fc, support = positions(f)
        coords = {(r * fr + i, c * fc + j) for r, c in coords for i, j in support}
        rows, cols = rows * fr, cols * fc
    return rows, cols, coords


def test_builders_match_the_coordinate_list_reference():
    for d in range(1, 6):
        spec = AlgebraSpec(d)
        for r in range(4):
            for l in range(4):
                if r or l:
                    assert positions(connected_map(spec, r, l)) == reference_connected(d, r, l), (d, r, l)
        expected = [reference_connected(d, r, l) for r, l in ((2, 1), (0, 1), (1, 2), (1, 0))]
        assert [positions(m) for m in structure_maps(spec)] == expected, d
        swap = {(b * d + a, a * d + b) for a in range(d) for b in range(d)}
        assert positions(swap_map(d)) == (d * d, d * d, swap), d
    assert positions(swap_map(0)) == (0, 0, set())


def test_tensor_assemble_matches_the_coordinate_list_reference():
    rng = random.Random(29)
    for _ in range(200):
        shapes = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
        factors = [random_matrix(rng, rows, cols) for rows, cols in shapes]
        assert positions(tensor_assemble(factors)) == reference_kron(factors), shapes
    for d in range(1, 6):
        factors = [connected_map(AlgebraSpec(d), 2, 1), GF2Matrix.identity(d), connected_map(AlgebraSpec(d), 1, 0)]
        assert positions(tensor_assemble(factors)) == reference_kron(factors), d


def test_sizes_are_read_as_plain_ints():
    np = pytest.importorskip("numpy")
    assert type(AlgebraSpec(np.int64(3)).dim) is int
    assert connected_map(AlgebraSpec(np.int64(2)), np.int64(2), np.uint8(1)) == connected_map(AlgebraSpec(2), 2, 1)
    assert swap_map(np.int64(3)) == swap_map(3)


# Shapes are sized before any power is built: connected_map refuses exactly
# the shapes the byte check refuses, and a count of 10**7 costs no loop.


def loop_index(value, count, radix):
    """constant_tensor_index by its definition, one digit at a time."""
    idx = 0
    for _ in range(count):
        idx = idx * radix + value
    return idx


def test_constant_tensor_index_matches_its_digit_loop():
    for radix in range(1, 7):
        for count in range(8):
            for value in range(radix):
                assert constant_tensor_index(value, count, radix) == loop_index(value, count, radix)
    assert constant_tensor_index(0, 10**7, 1) == 0
    assert constant_tensor_index(2, 300, 3) == loop_index(2, 300, 3)


def byte_check_fits(d, r, l):
    try:
        gf2._check_bytes(d**l, d**r)
    except SizeError:
        return False
    return True


@pytest.mark.parametrize("ceiling", [64, 4096])
def test_connected_map_refuses_exactly_the_shapes_the_byte_check_refuses(monkeypatch, ceiling):
    monkeypatch.setattr(gf2, "MAX_MATRIX_BYTES", ceiling)
    counts = (0, 1, 2, 3, 5, 9, 40, 600)
    for d in (1, 2, 3, 5, 2**64 + 1):
        spec = AlgebraSpec(d)
        for r, l in product(counts, repeat=2):
            if not (r or l):
                continue
            if byte_check_fits(d, r, l):
                assert positions(connected_map(spec, r, l)) == reference_connected(d, r, l), (d, r, l)
            else:
                with pytest.raises(SizeError, match="byte ceiling$"):
                    connected_map(spec, r, l)


@pytest.mark.parametrize(
    "dim, r, l, message",
    [
        pytest.param(2, 10**6, 1, "2^1x2^1000000 matrix is over the 2147483648 byte ceiling", id="2-million-inputs"),
        pytest.param(2, 1, 10**7, "2^10000000x2^1 matrix is over the 2147483648 byte ceiling", id="2-ten-million-outputs"),
        pytest.param(3, 10**7, 10**7, "3^10000000x3^10000000 matrix is over the 2147483648 byte ceiling", id="3-both"),
        pytest.param(2**600, 1, 0, "of 181 digits^0xof 181 digits^1 matrix is over the 2147483648 byte ceiling", id="wide-dim"),
    ],
)
def test_connected_map_over_the_ceiling_is_refused_before_its_power(dim, r, l, message):
    with pytest.raises(SizeError) as info:
        connected_map(AlgebraSpec(dim), r, l)
    assert str(info.value) == message


def test_connected_map_at_dimension_1_takes_any_count():
    for r, l in ((10**7, 10**7), (10**7, 0), (0, 10**7), (1, 10**6)):
        m = connected_map(AlgebraSpec(1), r, l)
        assert (m.rows, m.cols, m.ints) == (1, 1, [1])
