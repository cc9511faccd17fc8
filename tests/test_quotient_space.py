"""QuotientSpace against its former numpy construction, its input checks,
and what its construction does and does not compute."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vandercomplex
from vandercomplex import MembershipError, ValidationError, build_complex, torus_two_n
from vandercomplex import gf2
from vandercomplex.gf2 import GF2Matrix, QuotientSpace
from vandercomplex.zndiag import chain_map, cohomology_quotients, identity_morphism, induced_map_from


def _nwords(cols):
    return (cols + 63) >> 6


def _words(ints, cols):
    """Ints (bit j is column j) packed as rows of uint64 words."""
    ints = list(ints)
    return GF2Matrix(len(ints), cols, ints).words


def _matrix(rows, cols, words):
    """A GF2Matrix holding finished packed words."""
    return GF2Matrix(rows, cols, [int.from_bytes(row.tobytes(), "little") for row in words])


def _table(boundaries):
    """The insertion table of boundary ints, as QuotientSpace takes it."""
    table: dict[int, int] = {}
    for v in boundaries:
        gf2._insert(table, v)
    return table


def _columns(vectors, n):
    """An n-row matrix whose columns are the given ints."""
    return GF2Matrix(n, len(vectors), [sum((v >> j & 1) << k for k, v in enumerate(vectors)) for j in range(n)])


class NumpyQuotient:
    """The numpy construction QuotientSpace used before it built its
    matrices from Python integers: three bit transposes, a product and a
    vstack, all at construction.  Its coordinates are the second algorithm
    QuotientSpace once carried beside the insertion rule: the inverse of
    the table's pivot block for the quotient basis, stacked over check rows
    at the non-pivot positions, times the vectors.  Takes ints, or a
    prebuilt table as boundaries."""

    def __init__(self, cycles, boundaries, n):
        prebuilt = boundaries if isinstance(boundaries, dict) else None
        b = list(boundaries.values() if prebuilt is not None else boundaries)
        z = list(cycles)
        self.n = n
        span: dict[int, int] = {}
        for v in z:
            gf2._insert(span, v)
        for i, v in enumerate(b):
            if gf2._insert(span, v)[0]:
                raise MembershipError(f"boundary {i} is not in the span of the cycles")
        table: dict[int, int] = dict(prebuilt or {})
        if prebuilt is None:
            for v in b:
                gf2._insert(table, v)
        reps = [r for r, _ in (gf2._insert(table, v) for v in z) if r]
        self.dim = len(reps)
        self.representatives = _matrix(self.dim, n, _words(reps, n)).transpose()
        rows = reps + list(table.values())[: len(table) - len(reps)]
        index = {r & -r: j for j, r in enumerate(rows)}
        mask = sum(index)
        coeffs: dict[int, int] = {}
        for low in sorted(index, reverse=True):
            c, rest = 1 << index[low], (table[low] & mask) ^ low
            while rest:
                hit = rest & -rest
                c ^= coeffs[hit]
                rest ^= hit
            coeffs[low] = c
        m = len(rows)
        pivots = [low.bit_length() - 1 for low in coeffs]
        solve_t = np.zeros((n, _nwords(m)), dtype=np.uint64)
        solve_t[pivots] = _words(coeffs.values(), m)
        solve = _matrix(n, m, solve_t).transpose()
        self._free = free = np.setdiff1d(np.arange(n), pivots)
        rows_t = _matrix(m, n, _words(rows, n)).transpose()
        check = (_matrix(free.size, m, rows_t.words[free]) @ solve).words.copy()
        check[np.arange(free.size), free >> 6] ^= np.uint64(1) << (free & 63).astype(np.uint64)
        self._apply = _matrix(self.dim + free.size, n, np.vstack([solve.words[: self.dim], check]))

    def coordinates(self, vs):
        """The stacked matrix times vs, as integer arrays mod 2: the first
        dim rows are the coordinates, the rest the residuals at the free
        positions, which must vanish."""
        out = (self._apply.to_bool_array().astype(np.int64) @ vs.to_bool_array().astype(np.int64)) & 1
        residual = out[self.dim :]
        if residual.any():
            col = np.flatnonzero(residual.any(axis=0))[0]  # the first vector with a residual
            row = np.flatnonzero(residual[:, col])[0]
            raise MembershipError(f"vector has unreducible bit {self._free[row]}; not in the cycle span")
        packed = np.packbits(out[: self.dim].astype(np.uint8), axis=1, bitorder="little")
        return GF2Matrix(self.dim, vs.cols, [int.from_bytes(row.tobytes(), "little") for row in packed])


def _outcome(f, *args):
    """f's result, or the type and text of the error it raised."""
    try:
        return f(*args)
    except (MembershipError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _random_int(rng, n, density):
    return sum(1 << j for j in range(n) if rng.random() < density)


def _random_sum(rng, vectors):
    out = 0
    for v in vectors:
        if rng.random() < 0.5:
            out ^= v
    return out


def _inputs(rng, n):
    """Cycles and the table of boundaries of width n, some with dependent
    or zero cycles, boundaries spanning the cycles (dimension 0), or a
    boundary outside their span."""
    density = rng.choice((0.05, 0.3, 0.7))
    cycles = [_random_int(rng, n, density) for _ in range(rng.randint(0, min(n, 12)))]
    if cycles and rng.random() < 0.3:
        cycles += [cycles[0] ^ cycles[-1], 0]
    kind = rng.randrange(4)
    if kind == 0:  # the boundaries span the cycles: dimension 0
        boundaries = [_random_sum(rng, cycles) for _ in range(len(cycles))] + list(cycles)
    elif kind == 1 and n:  # a boundary outside the cycle span, most likely
        boundaries = [_random_sum(rng, cycles), _random_int(rng, n, 0.5)]
    else:
        boundaries = [_random_sum(rng, cycles) for _ in range(rng.randint(0, 4))]
    return cycles, _table(boundaries)


WIDTHS = (0, 1, 2, 63, 64, 65, 127, 128, 129)


def test_quotient_space_matches_numpy_construction():
    rng = random.Random(71)
    built = 0
    for n in WIDTHS:
        for _ in range(12):
            cycles, boundaries = _inputs(rng, n)
            ours = _outcome(QuotientSpace, cycles, boundaries, n)
            ref = _outcome(NumpyQuotient, cycles, boundaries, n)
            if isinstance(ref, tuple):  # the same MembershipError text
                assert ours == ref
                continue
            built += 1
            assert (ours.n, ours.dim) == (ref.n, ref.dim)
            assert ours.representatives == ref.representatives
            probes = [_random_sum(rng, cycles) for _ in range(5)]
            probes += [_random_int(rng, n, 0.5) for _ in range(3)]  # mostly outside the span
            for v in probes:  # single vectors
                column = _columns([v], n)
                a, b = _outcome(ours.coordinates, column), _outcome(ref.coordinates, column)
                assert a == b, (n, a, b)
            batch = _columns(probes, n)
            for cols in (batch, batch.submatrix(0, n, 0, 5), GF2Matrix(n, 0)):
                a, b = _outcome(ours.coordinates, cols), _outcome(ref.coordinates, cols)
                assert a == b, n
    assert built > 60


def test_empty_and_zero_dimensional_quotients():
    for n in (0, 63, 64, 65):
        for cycles in ([], [1, 3][: min(n, 2)]):
            boundaries = _table(cycles)
            q = QuotientSpace(cycles, boundaries, n)
            ref = NumpyQuotient(cycles, boundaries, n)
            assert q.dim == 0 and q.representatives == ref.representatives
            assert (q.representatives.rows, q.representatives.cols) == (n, 0)
            probe = GF2Matrix.identity(n)
            assert _outcome(q.coordinates, probe) == _outcome(ref.coordinates, probe)
            assert q.coordinates(GF2Matrix(n, 3)) == GF2Matrix(0, 3)


def test_construction_makes_no_transpose_and_no_product(monkeypatch):
    rng = random.Random(72)
    cx = build_complex(torus_two_n(3), (2, 1, 2))
    reduced = [gf2.reduce_columns(m) for m in cx.differentials]  # these transpose

    def refuse(*args):
        raise AssertionError("QuotientSpace construction ran a transpose or a product")

    monkeypatch.setattr(GF2Matrix, "transpose", refuse)
    monkeypatch.setattr(GF2Matrix, "__matmul__", refuse)
    for k in range(1, len(reduced)):
        QuotientSpace(reduced[k][0], reduced[k - 1][1], cx.level_dims[k])
    for n in WIDTHS:
        cycles, boundaries = _inputs(rng, n)
        _outcome(QuotientSpace, cycles, boundaries, n)


def test_induced_maps_ask_only_target_quotients_with_source_cohomology(monkeypatch):
    cx = build_complex(torus_two_n(3), (2, 1, 2))
    source, target = cohomology_quotients(cx), cohomology_quotients(cx)
    asked = []
    coordinates = QuotientSpace.coordinates

    def counted(q, vs):
        asked.append(q)
        return coordinates(q, vs)

    monkeypatch.setattr(QuotientSpace, "coordinates", counted)
    induced_map_from(chain_map(torus_two_n(3), identity_morphism((2, 1, 2)), source_complex=cx), source, target)
    assert asked == [qy for qx, qy in zip(source, target) if qx.dim > 0]
    assert 0 < len(asked) < len(target)


@pytest.mark.parametrize("rows", [0, 2, 4])
def test_coordinates_refuse_the_wrong_row_count(rows):
    q = QuotientSpace([0b011, 0b110], _table([0b101]), 3)
    with pytest.raises(ValidationError, match=rf"^{rows}-row vectors for a quotient of vectors of length 3$"):
        q.coordinates(GF2Matrix(rows, 1))


@pytest.mark.parametrize(
    "cycles, boundaries, n, match",
    [
        pytest.param([1 << 10], {}, 4, r"^cycle 0 has bit 10 set, past length 4$", id="bit-past-length"),
        pytest.param([1, 1 << 70], {}, 4, r"^cycle 1 has bit 70 set, past length 4$", id="beyond-64-bits"),
        pytest.param([-3], {}, 4, r"^cycle 0 is a negative int$", id="negative"),
        pytest.param([True], {}, 4, r"^cycle 0 must be an int, got bool$", id="bool"),
        pytest.param([1.0], {}, 4, r"^cycle 0 must be an int, got float$", id="float"),
        pytest.param([1], [1], 4, r"^boundaries must be an insertion table, got list$", id="boundary"),
        pytest.param([1], {16: 16}, 4, r"^boundary 0 has bit 4 set, past length 4$", id="table-row"),
        # these four once escaped as a bare StopIteration or TypeError, or
        # built a matrix with -1 rows
        pytest.param([1], {1: 1, 2: 0}, 3, r"^boundary 1 is zero, stored under key 2$", id="zero-row"),
        pytest.param([1], {}, "3", r"^vector length must be an integer, got '3'$", id="length-str"),
        pytest.param([1], {}, 2.0, r"^vector length must be an integer, got 2\.0$", id="length-float"),
        pytest.param([], {}, -1, r"^vector length must be nonnegative, got -1$", id="length-negative"),
    ],
)
def test_bad_vectors_raise_one_line_validation_errors(cycles, boundaries, n, match):
    with pytest.raises(ValidationError, match=match):
        QuotientSpace(cycles, boundaries, n)


def test_boundary_outside_span_is_named():
    with pytest.raises(MembershipError, match=r"^boundary 1 is not in the span of the cycles$"):
        QuotientSpace([0b0011, 0b0110], _table([0b0101, 0b1000, 0b0100]), 4)
    # dependent cycles take the insertion route to their rank
    q = QuotientSpace([0b0011, 0b0110, 0b0101, 0], _table([0b0101]), 4)
    assert q.dim == 1
    with pytest.raises(MembershipError, match=r"^boundary 0 is not in the span of the cycles$"):
        QuotientSpace([0b0011, 0b0110, 0b0101], _table([0b1000]), 4)


def test_numpy_integer_length_is_read_as_an_int():
    q = QuotientSpace([0b011, 0b110], _table([0b101]), np.int64(3))
    assert type(q.n) is int and q.n == 3 and q.dim == 1
    assert q.representatives.rows == 3


def test_table_row_off_its_lowest_bit_is_refused_without_hanging():
    # Reducing by this table once cycled forever, so the check runs in a
    # subprocess with a timeout: a regression fails instead of hanging.
    script = (
        "from vandercomplex import ValidationError\n"
        "from vandercomplex.gf2 import QuotientSpace\n"
        "try:\n"
        "    QuotientSpace([0b001, 0b110], {1: 0b110}, 3)\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(vandercomplex.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "boundary 0 is stored under key 1, not its lowest set bit 2\n"
