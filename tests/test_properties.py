"""Property tests for the three input formats, the command line and the
GF(2) matrix invariants.

Random JSON, and random near-miss versions of each format, must either
parse or raise ValidationError; the command line must answer every such
file with exit 0, 1 or 2 and at most one line on stderr, never a
traceback.  Every way of building a GF2Matrix, both block assemblers
included, and every product, transpose and submatrix, must keep each row
inside its columns and agree with a numpy reference, through both the
array and the bit accessors, and its kernel basis must lie in its kernel.  Examples are
derandomized so the suite is repeatable.
"""

import contextlib
import io
import json
import random

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vandercomplex import ValidationError, cochain, format_diagram, gf2, torus_two_n  # noqa: E402
from vandercomplex.cli import main  # noqa: E402
from vandercomplex.gendet import parse_matrix  # noqa: E402
from vandercomplex.gf2 import GF2Matrix  # noqa: E402
from vandercomplex.linkdiag import parse_diagram  # noqa: E402
from vandercomplex.zndiag import parse_morphism  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 4) | scalars
vector = st.lists(small, max_size=3)
pairs = st.lists(st.lists(small, max_size=3) | scalars, max_size=3)

square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(1, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)
matrices = (
    values
    | st.fixed_dictionaries({"matrix": square})
    | st.fixed_dictionaries({"matrix": st.lists(vector, max_size=4) | values})
)
two_colors = st.lists(st.integers(1, 3), min_size=2, max_size=2)
morphisms = (
    values
    | st.fixed_dictionaries(
        {"source": vector, "target": vector},
        optional={"arcs": pairs | values, "dots": vector | values},
    )
    | st.fixed_dictionaries(
        {"source": two_colors, "target": two_colors},
        optional={
            "arcs": st.lists(st.sampled_from([[1, 1], [1, 2], [2, 2]]), max_size=2),
            "dots": st.lists(st.integers(1, 3), max_size=2),
        },
    )
)
crossings = st.fixed_dictionaries({"zero": pairs, "one": pairs}) | values
diagrams = (
    values
    | st.fixed_dictionaries({"crossings": st.lists(crossings, max_size=3)}, optional={"free_loops": small})
    | st.sampled_from([json.loads(format_diagram(torus_two_n(n))) for n in (1, 2, 3)])
)
texts = st.text(max_size=20)

PARSERS = {"matrix": parse_matrix, "zmap": parse_morphism, "diagram": parse_diagram}
FORMATS = {"matrix": matrices, "zmap": morphisms, "diagram": diagrams}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_random_json_parses_or_raises_validation_error(kind):
    @PROPERTY
    @given(FORMATS[kind].map(json.dumps) | texts)
    def check(text):
        try:
            PARSERS[kind](text)
        except ValidationError:
            pass

    check()


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_cli_answers_every_input_in_one_line(kind, tmp_path_factory):
    path = tmp_path_factory.mktemp(kind) / "input.json"

    @PROPERTY
    @given(
        FORMATS[kind].map(json.dumps) | texts,
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.booleans(),
    )
    def check(text, colors, as_json):
        path.write_text(text)
        argv = [kind, "--file", str(path)]
        if kind == "diagram":
            argv += ["--x", ",".join(map(str, colors))]
        if kind == "zmap":
            argv += ["--n", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"] * as_json)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert len(lines) <= 1 and "Traceback" not in err.getvalue()
        if code == 0:
            assert lines == [] and out.getvalue()
        if code == 1:
            assert lines[0].startswith("error:") and out.getvalue() == ""

    check()


# Widths at and around the 64-bit word boundary; width 0 gives matrices
# with zero rows or zero columns.
WIDTHS = (0, 1, 63, 64, 65, 130)
MATRIX_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _random_bits(rng, rows, cols, density) -> np.ndarray:
    return np.random.default_rng(rng.getrandbits(64)).random((rows, cols)) < density


def _pairs(rng, bits) -> list[tuple[int, int]]:
    """The set bits of `bits` as (row, col) pairs, shuffled, plus a few
    positions given twice, which cancel."""
    pairs = [(int(i), int(j)) for i, j in np.argwhere(bits)]
    rows, cols = bits.shape
    if rows and cols:
        pairs += [(rng.randrange(rows), rng.randrange(cols)) for _ in range(4)] * 2
    rng.shuffle(pairs)
    return pairs


def _block_levels(rng, bits, assemble=cochain._block_matrices):
    """`bits` and a second random level, built by one call of a block
    assembler, by default the one that works by position.

    Every set bit is a block of one position, some given twice so that
    they cancel, and each level also gets a random rectangle of stride one
    or two, a block of two factors, whose bits are XORed into the
    reference."""
    other = _random_bits(rng, rng.choice(WIDTHS), rng.choice(WIDTHS), 0.3)
    refs, points, groups = [], [], []
    for lv, b in enumerate((bits, other)):
        ref = b.copy()
        points += [(lv, i, j) for i, j in _pairs(rng, b)]
        rows, cols = b.shape
        if rows and cols:
            step = rng.choice((1, 2))
            height, length = rng.randint(1, (rows - 1) // step + 1), rng.randint(1, (cols - 1) // step + 1)
            r, c = rng.randrange(rows - (height - 1) * step), rng.randrange(cols - (length - 1) * step)
            ref[r : r + height * step : step, c : c + length * step : step] ^= True
            groups.append(((height, length), (0, step), (step, 0), [(lv, r, c)]))
        refs.append(ref)
    rng.shuffle(points)
    groups.append(((), (), (), points))
    rng.shuffle(groups)
    return list(zip(assemble([bits.shape, other.shape], groups), refs))


def _from_bits(bits) -> GF2Matrix:
    """A matrix with the set bits of a bool array, through from_triplets."""
    return GF2Matrix.from_triplets(*bits.shape, [(int(i), int(j)) for i, j in np.argwhere(bits)])


def _pack(bits) -> np.ndarray:
    """A (rows, cols) bool array packed into (rows, words) uint64, bit j of
    row i at bit j % 64 of word j // 64."""
    rows, cols = bits.shape
    out = np.zeros((rows, (cols + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (cols + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(np.uint64)


# Each builds (matrix, numpy reference) pairs from a random bool array.
CONSTRUCTORS = {
    "zeros": lambda rng, bits: [(GF2Matrix(*bits.shape), np.zeros_like(bits))],
    "identity": lambda rng, bits: [(GF2Matrix.identity(len(bits)), np.eye(len(bits), dtype=bool))],
    # the constructor, given each row's int
    "from_rows": lambda rng, bits: [
        (GF2Matrix(*bits.shape, [sum(1 << int(j) for j in np.flatnonzero(row)) for row in bits]), bits)
    ],
    "from_triplets": lambda rng, bits: [(GF2Matrix.from_triplets(*bits.shape, _pairs(rng, bits)), bits)],
    "block_matrices": _block_levels,
    "row_matrices": lambda rng, bits: _block_levels(rng, bits, cochain._row_matrices),
}


def _check_matrix(rng, m, ref):
    """Rows inside the columns, bits, words and bool array as the
    reference's, the kernel basis of `reduce_columns` inside the kernel,
    and compose_is_zero as a naive product says."""
    assert (m.rows, m.cols) == ref.shape and len(m.ints) == m.rows
    assert all(type(x) is int and 0 <= x < 1 << m.cols for x in m.ints)
    assert m.to_rows() == ref.astype(int).tolist()
    assert np.array_equal(m.to_bool_array(), ref)
    assert np.array_equal(m.words, _pack(ref))
    basis = gf2.reduce_columns(m)[0]
    kernel = np.array([[(v >> j) & 1 for j in range(m.cols)] for v in basis], dtype=np.int64)
    kernel = kernel.reshape(len(basis), m.cols)
    assert not ((ref.astype(np.int64) @ kernel.T) % 2).any()
    sums = np.array([rng.random() < 0.5 for _ in range(3 * len(basis))], dtype=np.int64).reshape(len(basis), 3)
    in_kernel = (kernel.T @ sums) % 2 == 1  # three columns in the kernel
    width = rng.choice(WIDTHS)
    for right in (_random_bits(rng, m.cols, width, 0.05), np.zeros((m.cols, width), dtype=bool), in_kernel):
        naive = (ref.astype(np.int64) @ right.astype(np.int64)) % 2
        assert m.compose_is_zero(_from_bits(right)) == (not naive.any())


@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_gf2_matrix_invariants(constructor):
    @MATRIX_PROPERTY
    @given(
        st.sampled_from(WIDTHS),
        st.sampled_from(WIDTHS),
        st.sampled_from((0.0, 0.03, 0.5, 1.0)),
        st.integers(0, 2**32 - 1),
    )
    def check(rows, cols, density, seed):
        rng = random.Random(seed)
        for m, ref in CONSTRUCTORS[constructor](rng, _random_bits(rng, rows, cols, density)):
            _check_matrix(rng, m, ref)
            right = _random_bits(rng, m.cols, rng.choice(WIDTHS), rng.choice((0.05, 0.5)))
            naive = (ref.astype(np.int64) @ right.astype(np.int64)) % 2 == 1
            _check_matrix(rng, m @ _from_bits(right), naive)
            _check_matrix(rng, m.transpose(), ref.T)
            r0, r1 = sorted(rng.randint(0, m.rows) for _ in range(2))
            c0, c1 = sorted(rng.randint(0, m.cols) for _ in range(2))
            _check_matrix(rng, m.submatrix(r0, r1, c0, c1), ref[r0:r1, c0:c1])

    check()
