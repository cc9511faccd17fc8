import json
import random
from math import prod

import pytest

from vandercomplex import (
    FormatError,
    PosIntMatrix,
    SizeError,
    ValidationError,
    build_matrix_complex,
    det_exact,
    det_permutation_expansion,
    euler_characteristic,
    homology,
    matrix_report,
    parse_matrix,
    torus_two_n,
    vandermonde_matrix,
    verify_euler,
)
from vandercomplex.gendet import _grid_dims, random_matrix


def cofactor_det(rows):
    """Reference determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def product_formula(x):
    out = prod(x)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            out *= x[j] - x[i]
    return out


def test_det_examples():
    assert det_exact(PosIntMatrix(((1, 1), (2, 4)))) == 2 == cofactor_det([[1, 1], [2, 4]])
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_exact(PosIntMatrix(((1, 1), (1, 1)))) == 0


def test_det_needs_square():
    with pytest.raises(ValidationError):
        det_exact([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError):
        det_exact([])
    # no silent truncation of non-integers, and no bools taken as 1
    for rows in ([[1.5]], [[True, 2], [3, 4.9]]):
        with pytest.raises(ValidationError, match="must be an integer"):
            det_exact(rows)


def test_det_matches_expansion_and_cofactors():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(n, 9, rng)
        d = det_exact(m)
        assert d == det_permutation_expansion(m)
        assert d == cofactor_det([list(r) for r in m.entries])


def test_det_handles_zero_pivots_and_swaps():
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[0, 2, 1], [3, 0, 0], [0, 0, 1]]) == -6
    assert det_exact([[0, 1, 1], [0, 2, 2], [1, 0, 3]]) == 0


def test_permutation_expansion_cap():
    with pytest.raises(SizeError):
        det_permutation_expansion(random_matrix(13, 2, random.Random(0)))


def test_pos_int_matrix_validation():
    with pytest.raises(ValidationError):
        PosIntMatrix(((1, 0), (1, 1)))
    with pytest.raises(ValidationError):
        PosIntMatrix(((1, 2, 3), (4, 5, 6)))


def test_vandermonde_matrix_examples():
    m = vandermonde_matrix((1, 2, 3), (1, 2, 3))
    assert m.entries == ((1, 1, 1), (2, 4, 8), (3, 9, 27))
    m = vandermonde_matrix((2, 2), (1, 2))
    assert m.entries == ((2, 4), (2, 4)) and det_exact(m) == 0
    assert det_exact(vandermonde_matrix((1, 2), (1, 2))) == 2
    with pytest.raises(ValidationError, match="must be an integer"):
        vandermonde_matrix((1.5, 2), (1, 2.7))


def test_vandermonde_product_formula():
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randint(1, 5)
        x = tuple(rng.randint(1, 9) for _ in range(n))
        m = vandermonde_matrix(x, tuple(range(1, n + 1)))
        assert det_exact(m) == product_formula(x)


def test_matrix_complex_all_ones():
    rep = matrix_report(PosIntMatrix(((1, 1), (1, 1))))
    assert rep.cochain_dims == [1, 1]
    assert rep.homology_dims == [0, 0]
    assert rep.euler_characteristic == 0 == rep.determinant
    assert rep.agree


def test_matrix_complex_2345():
    m = PosIntMatrix(((2, 3), (4, 5)))
    cx = build_matrix_complex(m)
    assert cx.level_dims == (10, 12)
    rep = homology(cx)
    assert rep.euler_characteristic == -2 == det_exact(m)


def test_matrix_complex_matches_torus_pipeline():
    x = (1, 2)
    m = vandermonde_matrix(x, (1, 2))
    chi_matrix = euler_characteristic(build_matrix_complex(m).level_dims)
    chi_torus = verify_euler(torus_two_n(2), x).euler_characteristic
    assert chi_matrix == chi_torus == 2


def test_matrix_complex_random_corpus():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(n, 4, rng)
        cx = build_matrix_complex(m)
        assert cx.verify_d_squared(), m.entries
        assert euler_characteristic(cx.level_dims) == det_exact(m), m.entries


def test_matrix_complex_differential_is_unit_after_counit():
    # on a changed factor every basis vector must land on basis vector 0
    m = PosIntMatrix(((2, 3), (4, 5)))
    cx = build_matrix_complex(m)
    delta = cx.differentials[0]
    # source block: radices (2, 5); target block: radices (3, 4)
    for a in range(2):
        for b in range(5):
            col = a * 5 + b
            images = [r for r in range(delta.rows) if delta.get(r, col)]
            assert images == [0]


def test_matrix_report_skip_homology():
    rep = matrix_report(PosIntMatrix(((2, 3), (4, 5))), skip_homology=True)
    assert rep.homology_dims is None
    assert rep.euler_characteristic == -2 and rep.agree


def test_matrix_budget():
    with pytest.raises(SizeError):
        build_matrix_complex(PosIntMatrix(((4000, 4000), (4000, 4000))))


def test_parse_matrix():
    m = parse_matrix(json.dumps({"matrix": [[2, 3], [4, 5]]}))
    assert m.entries == ((2, 3), (4, 5))
    with pytest.raises(FormatError):
        parse_matrix("[1, 2]")
    with pytest.raises(FormatError):
        parse_matrix(json.dumps({"rows": [[1]]}))
    with pytest.raises(ValidationError):
        parse_matrix(json.dumps({"matrix": [[1, 2], [3, 0]]}))


def mask_dp_dims(rows):
    """The counting formula as a DP over used-column masks, graded by
    inversions: rows are placed in order, and row i taking column j over
    the columns used in `mask` adds one inversion per used column above j.
    Each state holds the sums of products by inversion count, and the
    n * 2^(n-1) steps replace the sum over all n! permutations."""
    n = len(rows)
    states = {0: [1]}
    for i in range(n):
        nxt = {}
        for mask, poly in states.items():
            for j in range(n):
                if mask >> j & 1:
                    continue
                shift = (mask >> j).bit_count()
                out = nxt.setdefault(mask | 1 << j, [])
                out.extend([0] * (shift + len(poly) - len(out)))
                for k, c in enumerate(poly):
                    out[k + shift] += c * rows[i][j]
        states = nxt
    return states[(1 << n) - 1]


def test_mask_dp_matches_grid_dims():
    rng = random.Random(41)
    for n in range(1, 7):
        for _ in range(100):
            rows = [[rng.choice((1, 2, 9, 1 << 40)) for _ in range(n)] for _ in range(n)]
            assert mask_dp_dims(rows) == _grid_dims(rows), rows
