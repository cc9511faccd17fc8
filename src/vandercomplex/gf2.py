"""Exact linear algebra over the two-element field.

A matrix is its shape and one Python integer per row, bit j of row i
being entry (i, j); a vector is one integer, bit j being entry j, and its
length is given beside it.  No row has a bit at or past the column count.
Integers cost memory only up to their highest set bit and combine with
one XOR however wide they are, which suits both the sparse differentials
of large complexes and the many small matrices of chain and induced maps,
where the fixed cost of a numpy call would be most of the work.  A product
XORs, for each row of the left factor, the rows of the right factor that
its set bits select, taking off the highest set bit each time: its index
is `bit_length() - 1`, so no `x & -x` is built, and a zero row takes no
step.  `compose_is_zero` does the same row by row and stops at the first
nonzero row, never building the product, and a transpose walks its rows'
set bits the same way.  Only the array accessors `words`, which packs
the rows into 64-bit words, and `to_bool_array` import numpy; every
constructor and every other accessor works on the row integers and never
loads it.

There is one elimination rule: a vector is reduced by the stored row at
its lowest set bit until that bit is free, and then stored there
(`_insert`).  `rank` counts the rows of a matrix that get stored;
`reduce_columns` reduces a differential's columns once, giving both its
kernel basis and the boundary table of the next level; and
`QuotientSpace` inserts its cycles into that table the same way, then
reads a vector's quotient coordinates off the rows that reducing it
through the table uses.  Everything here is deterministic: vectors are
inserted in their given order and always reduce against the lowest set
bit first, so identical inputs give identical output bits on every run.

Matrix values are treated as immutable by the rest of the package.
Indices outside a matrix raise ValidationError, and row ints, positions
and cycles must be Python ints: floats, bools and numpy integers are
refused, not rounded.
"""

from __future__ import annotations

from itertools import repeat

from .errors import MembershipError, SizeError, ValidationError, strict_int

# Hard ceiling on a matrix built dense (zeros, the identity, a product, a
# level of an assembled complex), in the bytes its row ints take when
# every row reaches its last column: rows x ceil(cols / 64) 64-bit words.
# Protects against accidentally materializing matrices for oversized
# complexes.
MAX_MATRIX_BYTES = 2 << 30


def _check_bytes(rows: int, cols: int) -> None:
    """Refuse a rows-by-cols matrix whose dense row ints, rows x
    ceil(cols / 64) x 8 bytes, pass MAX_MATRIX_BYTES."""
    size = rows * ((cols + 63) >> 6) * 8
    if size > MAX_MATRIX_BYTES:
        raise SizeError(
            f"{rows}x{cols} matrix needs {size} packed bytes, "
            f"over the {MAX_MATRIX_BYTES} byte ceiling"
        )


def _index(i, size: int, what: str, of: str) -> int:
    """i as an int below size, or a ValidationError naming it and `of`."""
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < size:
        raise ValidationError(f"{what} {i!r} is out of range for {of}")
    return i


def _bit_string(value: int, width: int) -> str:
    """The bits of an int below 1 << width as "0" and "1", bit 0 first."""
    return bin(value | 1 << width)[:2:-1]


class GF2Matrix:
    """A rows-by-cols bit matrix over GF(2), one int per row in `ints`.

    Each of `ints` must be a nonnegative int below 1 << cols; the
    constructor refuses any other, naming the first.  Matrices built
    inside the package (products, submatrices, transposes, assembled
    levels, quotient coordinates) come from rows that are valid by
    construction and skip that check through `_matrix`, so no route pays
    for it.
    """

    __slots__ = ("rows", "cols", "ints")

    def __init__(self, rows: int, cols: int, ints: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if ints is None:
            _check_bytes(rows, cols)
            ints = [0] * rows
        elif len(ints) != rows:
            raise ValidationError(f"{rows} rows but {len(ints)} row ints")
        else:
            _check_vectors(ints, cols, "row")
        self.rows = rows
        self.cols = cols
        self.ints = ints

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        _check_bytes(n, n)
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_triplets(cls, rows: int, cols: int, coords) -> "GF2Matrix":
        """Build from (row, col) positions; repeated positions cancel mod 2.

        coords is an iterable of pairs of Python ints, split by one strict
        zip and checked by one pass over their types; floats, bools and
        numpy integers (an array's entries among them) are refused, and so
        is any position out of range, even a repeated one that would
        cancel.  The byte ceiling is not applied here: callers that build
        large matrices check it first, as assembly does.
        """
        pairs = list(coords)
        ints = [0] * rows
        if not pairs:
            return cls(rows, cols, ints)
        try:  # strict: every pair as long as the first, and exactly two of them
            r, c = zip(*pairs, strict=True)
        except (TypeError, ValueError):
            raise ValidationError("coords must be pairs (row, col)") from None
        kinds = set(map(type, r + c))
        if not kinds <= {int}:
            bad = min(t.__name__ for t in kinds - {int})
            raise ValidationError(f"coords must be integers, got {bad}")
        # a row past the end or a negative column fails in the loop; a
        # negative row or a column past the end would not, and could cancel
        if min(r) < 0 or max(c) >= cols:
            raise ValidationError("triplet coordinate out of range")
        try:
            for i, j in pairs:
                ints[i] ^= 1 << j
        except (IndexError, ValueError):
            raise ValidationError("triplet coordinate out of range") from None
        return _matrix(rows, cols, ints)

    # -- element access ------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        """The rows packed into read-only (rows, words) little-endian
        uint64, bit j of row i at bit j % 64 of word j // 64."""
        import numpy as np

        nwords = (self.cols + 63) >> 6
        blob = b"".join(map(int.to_bytes, self.ints, repeat(nwords * 8), repeat("little")))
        return np.frombuffer(blob, dtype="<u8").reshape(self.rows, nwords)

    def get(self, i: int, j: int) -> int:
        of = f"a {self.rows}x{self.cols} matrix"
        i = _index(i, self.rows, "row", of)
        return (self.ints[i] >> _index(j, self.cols, "column", of)) & 1

    def to_rows(self) -> list[list[int]]:
        return [list(map(int, _bit_string(x, self.cols))) for x in self.ints]

    def to_bool_array(self) -> np.ndarray:
        """Unpacked bits; meant for small matrices (tests and the benchmark gate)."""
        import numpy as np

        if self.rows * self.cols > (1 << 28):
            raise SizeError(f"refusing to unpack a {self.rows}x{self.cols} matrix")
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.cols].astype(bool)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "GF2Matrix":
        """Copy of the half-open row and column range."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValidationError("submatrix range out of bounds")
        mask = (1 << (c1 - c0)) - 1
        return _matrix(r1 - r0, c1 - c0, [(x >> c0) & mask for x in self.ints[r0:r1]])

    def transpose(self) -> "GF2Matrix":
        return _matrix(self.cols, self.rows, _transpose(self.ints, self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.ints == other.ints

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        """Each output row XORs the rows of other that self's row selects.

        A factor without set bits on either side gives the zero matrix at
        once."""
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        _check_bytes(self.rows, other.cols)
        if not any(self.ints) or not any(other.ints):
            return _matrix(self.rows, other.cols, [0] * self.rows)
        return _matrix(self.rows, other.cols, _product_rows(self.ints, other.ints))

    def compose_is_zero(self, other: "GF2Matrix") -> bool:
        """True iff self @ other is the zero matrix, found row by row
        without building the product; stops at the first nonzero row.
        Refuses what `@` refuses, with the same error types, except that
        no byte ceiling applies, since no product is built."""
        if not isinstance(other, GF2Matrix):
            raise TypeError(f"compose_is_zero needs a GF2Matrix, got {type(other).__name__}")
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        b = other.ints
        for x in self.ints:
            acc = 0
            while x:  # as in _product_rows
                n = x.bit_length() - 1
                acc ^= b[n]
                x ^= 1 << n
            if acc:
                return False
        return True

    # -- elimination ----------------------------------------------------

    def rank(self) -> int:
        """The number of rows that insertion by lowest set bit stores."""
        return _stored(self.ints)


def _product_rows(a: list[int], b: list[int]) -> list[int]:
    """The rows of the product of row ints a and b: for each row of a,
    the XOR of the rows b[j] at its set bits j, taken from the highest
    bit down, which `bit_length` finds without building `x & -x`.  A zero
    row gives 0 at once, and the highest bit's row starts the sum, which
    is all of it for a single-bit row, the most common nonzero row of
    chain maps and differentials."""
    out = []
    for x in a:
        if x:
            n = x.bit_length() - 1
            acc = b[n]
            x ^= 1 << n
            while x:
                n = x.bit_length() - 1
                acc ^= b[n]
                x ^= 1 << n
            out.append(acc)
        else:
            out.append(0)
    return out


class QuotientSpace:
    """Coordinates on span(cycles) / span(boundaries), pivot-based.

    `cycles` are ints below 1 << n, bit j being entry j.  `boundaries` is
    the table that inserting them builds, {lowest set bit: stored row} in
    insertion order, as `reduce_columns` returns it for the columns of a
    differential, and its rows are ints below 1 << n as well, each nonzero
    and stored under its lowest set bit; n is a nonnegative integer, not a
    float.  Any other input raises ValidationError, naming the first
    offender.  The cycles are inserted into a copy of the table in their
    given order, and each one that contributes a new pivot becomes a
    quotient basis vector: the row it is stored as, which is its
    representative.  Reduction always targets the lowest set bit, so
    coordinates are deterministic given the input order.  The boundaries
    must lie in the span of the cycles, which holds exactly when the table
    of boundaries and cycles has as many rows as the cycles have rank.

    The table's rows are independent, so a vector in their span is one sum
    of them, and the rows that reducing it by the table uses are that sum.
    The row of the i-th quotient basis vector carries the tag 1 << i and
    boundary rows carry none, so the XOR of the tags of the rows used is
    the vector's quotient coordinates.
    """

    def __init__(self, cycles: list[int], boundaries: dict[int, int], n: int):
        if isinstance(n, float):
            raise ValidationError(f"vector length must be an integer, got {n!r}")
        n = strict_int(n, "vector length")
        if n < 0:
            raise ValidationError(f"vector length must be nonnegative, got {n}")
        if not isinstance(boundaries, dict):
            raise ValidationError(f"boundaries must be an insertion table, got {type(boundaries).__name__}")
        _check_vectors(cycles, n, "cycle")
        rows = list(boundaries.values())
        _check_vectors(rows, n, "boundary")
        _check_table(boundaries, rows)
        self.n = n
        table = dict(boundaries)  # lowest set bit -> stored row
        reps = [r for r, _ in (_insert(table, v) for v in cycles) if r]
        if len(table) != _rank(cycles):
            # some boundary is outside the cycle span; name the first one
            span: dict[int, int] = {}
            for v in cycles:
                _insert(span, v)
            i = next(i for i, v in enumerate(boundaries.values()) if _insert(span, v)[0])
            raise MembershipError(f"boundary {i} is not in the span of the cycles")
        self.dim = len(reps)
        # Columns are the representatives, in quotient basis order.
        self.representatives = _matrix(n, self.dim, _transpose(reps, n))
        self._table = table
        self._tags = {r & -r: 1 << i for i, r in enumerate(reps)}

    def coordinates(self, vs: GF2Matrix) -> GF2Matrix:
        """Quotient coordinates of the classes of vs's columns, as the
        columns of the result.  Raises MembershipError, naming the bit of
        the first column that reduction leaves with no table row, when a
        column is not in the cycle span, which upstream means a broken
        chain map.
        """
        if vs.rows != self.n:
            raise ValidationError(f"{vs.rows}-row vectors for a quotient of vectors of length {self.n}")
        table, tags = self._table, self._tags
        out = []
        for v in _transpose(vs.ints, vs.cols):
            t = 0
            while v:  # the reduction of _insert, without storing
                low = v & -v
                hit = table.get(low)
                if hit is None:
                    raise MembershipError(f"vector has unreducible bit {low.bit_length() - 1}; not in the cycle span")
                v ^= hit
                t ^= tags.get(low, 0)
            out.append(t)
        return _matrix(self.dim, vs.cols, _transpose(out, self.dim))


def _check_vectors(vectors: list, n: int, what: str) -> None:
    """Refuse, naming the first, a vector that is not an int below 1 << n."""
    if set(map(type, vectors)) <= {int} and (not vectors or min(vectors) >= 0 and max(vectors).bit_length() <= n):
        return
    for i, v in enumerate(vectors):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{what} {i} must be an int, got {type(v).__name__}")
        if v < 0:
            raise ValidationError(f"{what} {i} is a negative int")
        if v.bit_length() > n:
            raise ValidationError(f"{what} {i} has bit {v.bit_length() - 1} set, past length {n}")


def _check_table(boundaries: dict, rows: list[int]) -> None:
    """Refuse, naming the first, a boundary row that is not stored under
    its lowest set bit; a zero row has none.  Reduction by such a table
    could cycle forever."""
    if 0 not in boundaries and list(boundaries) == [r & -r for r in rows]:
        return
    for i, (key, row) in enumerate(boundaries.items()):
        if not row:
            raise ValidationError(f"boundary {i} is zero, stored under key {key!r}")
        if key != row & -row:
            raise ValidationError(f"boundary {i} is stored under key {key!r}, not its lowest set bit {row & -row}")


def _matrix(rows: int, cols: int, ints: list[int]) -> GF2Matrix:
    """A GF2Matrix of rows that are valid by construction, without the
    constructor's checks."""
    m = object.__new__(GF2Matrix)
    m.rows, m.cols, m.ints = rows, cols, ints
    return m


def _rank(vectors: list[int]) -> int:
    """Rank of a list of ints: its length when their highest set bits are
    distinct and nonzero, as for a kernel basis, else by insertion."""
    highest = set(map(int.bit_length, vectors))
    if len(highest) == len(vectors) and 0 not in highest:
        return len(vectors)
    return _stored(vectors)


def _stored(vectors) -> int:
    """How many of the ints insertion stores, one after another: their rank."""
    table: dict[int, int] = {}
    return sum(1 for v in vectors if _insert(table, v)[0])


def _transpose(ints: list[int], width: int) -> list[int]:
    """Bit transpose of ints below 1 << width: entry b has bit i set iff
    ints[i] has bit b set.  Costs one step per set bit, highest first as
    in `_product_rows`, and none for a zero row, which suits the sparse
    tables that differentials give."""
    out = [0] * width
    for i, x in enumerate(ints):
        if x:
            bit = 1 << i
            while x:
                n = x.bit_length() - 1
                out[n] |= bit
                x ^= 1 << n
    return out


def _insert(
    table: dict[int, int], v: int, tags: dict[int, int] | None = None, t: int = 0
) -> tuple[int, int]:
    """Reduce v by the table entry at its lowest set bit until that bit is
    free, then store it there.  Returns the stored row (0 if v vanished)
    and t.

    With `tags`, t is v's tag: it takes the XOR of the tag of every entry
    used and is stored beside v, so a v that vanished returns the
    combination of tags that sums to zero.
    """
    while v:
        low = v & -v
        hit = table.get(low)
        if hit is None:
            table[low] = v
            if tags is not None:
                tags[low] = t
            return v, t
        v ^= hit
        if tags is not None:
            t ^= tags[low]
    return 0, t


def reduce_columns(m: GF2Matrix) -> tuple[list[int], dict[int, int]]:
    """Reduce m's columns once, in order, by the lowest set bit.

    Column j carries the tag 1 << j, and every reduction step XORs in the
    tag of the stored column it uses.  Returns the tags of the columns
    that vanish, which are a basis of m's right kernel, one vector per
    free column in ascending order (the tag of free column j is supported
    on j and earlier pivot columns, and that kernel vector is unique), and
    the stored columns, which are the table a QuotientSpace takes as the
    boundaries of the next level.
    """
    table: dict[int, int] = {}  # lowest set bit -> stored column
    tags: dict[int, int] = {}
    kernel = []
    for j, v in enumerate(_transpose(m.ints, m.cols)):
        row, t = _insert(table, v, tags, 1 << j)
        if not row:
            kernel.append(t)
    return kernel, table
