"""Exact linear algebra over the two-element field.

A matrix is its shape and one Python integer per row, bit j of row i
being entry (i, j); a vector is its length and one integer.  No row has a
bit at or past the column count.  Integers cost memory only up to their
highest set bit and combine with one XOR however wide they are, which
suits both the sparse differentials of large complexes and the many small
matrices of chain and induced maps, where the fixed cost of a numpy call
would be most of the work.  A product XORs, for each row of the left
factor, the rows of the right factor that its set bits select, one set bit
at a time; `compose_is_zero` does the same row by row and stops at the
first nonzero row, never building the product.  Only the array
accessors (`words`, which packs the rows into 64-bit words,
`to_bool_array` and `from_bool_array`) import numpy; every other
constructor and accessor works on the row integers and never loads it.

There is one elimination rule: a vector is reduced by the stored row at
its lowest set bit until that bit is free, and then stored there
(`_insert`).  `rank` counts the rows of a matrix that get stored;
`reduce_columns` reduces a differential's columns once, giving both its
kernel basis (which `nullspace_basis` returns) and the boundary table of
the next level; and `QuotientSpace` inserts its cycles the same way and
builds its matrices from the resulting integers.  Everything here is
deterministic: vectors are inserted in their given order and always
reduce against the lowest set bit first, so identical inputs give
identical output bits on every run.

Matrix values are treated as immutable by the rest of the package.
Indices outside a matrix, vector or quotient raise ValidationError, and
entries must be integers: floats and bools are refused, not rounded.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import repeat
from numbers import Integral
from operator import or_

from .errors import MembershipError, SizeError, ValidationError

if sys.byteorder != "little":  # pragma: no cover
    raise ImportError("bit packing relies on little-endian word layout")

# Hard ceiling on the packed words of a matrix built dense (zeros, the
# identity, a product, a level of an assembled complex).  Protects against
# accidentally materializing matrices for oversized complexes.
MAX_MATRIX_BYTES = 2 << 30


def _nwords(cols: int) -> int:
    return (cols + 63) >> 6


def _check_bytes(rows: int, cols: int) -> None:
    """Refuse a rows-by-cols matrix whose packed words pass MAX_MATRIX_BYTES."""
    size = rows * _nwords(cols) * 8
    if size > MAX_MATRIX_BYTES:
        raise SizeError(
            f"{rows}x{cols} matrix needs {size} packed bytes, "
            f"over the {MAX_MATRIX_BYTES} byte ceiling"
        )


def _index(i, size: int, what: str, of: str) -> int:
    """i as an int below size, or a ValidationError naming it and `of`."""
    if isinstance(i, bool) or not isinstance(i, Integral) or not 0 <= i < size:
        raise ValidationError(f"{what} {i!r} is out of range for {of}")
    return int(i)


def _pack(bits) -> np.ndarray:
    """Pack a (rows, cols) array of nonzero-means-set into (rows, words) uint64."""
    import numpy as np

    rows, cols = np.shape(bits)
    out = np.zeros((rows, _nwords(cols) * 8), dtype=np.uint8)
    out[:, : (cols + 7) >> 3] = np.packbits(np.asarray(bits, dtype=bool), axis=1, bitorder="little")
    return out.view(np.uint64)


def _unpack(words: np.ndarray, cols: int) -> np.ndarray:
    """The first `cols` bits of each row of packed words, as 0/1 uint8."""
    import numpy as np

    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :cols]


def _integers(values: list, what: str) -> list[int]:
    """values as Python ints: ints and numpy integers pass, and a float,
    bool or other non-integer is refused."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    bad = next((t for t in kinds if issubclass(t, bool) or not issubclass(t, Integral)), None)
    if bad is not None:
        raise ValidationError(f"{what} must be integers, got {bad.__name__}")
    return list(map(int, values))


def _bit_string(value: int, width: int) -> str:
    """The bits of an int below 1 << width as "0" and "1", bit 0 first."""
    return bin(value | 1 << width)[:2:-1]


def _bits_value(bits: list[int]) -> int:
    """Integers as one int, bit j being bits[j] mod 2, in one pass."""
    return int("".join("1" if b & 1 else "0" for b in reversed(bits)) or "0", 2)


class GF2Vector:
    """A length-n bit vector held as one int, bit i being entry i."""

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0):
        self.n = n
        self.value = value

    @classmethod
    def zeros(cls, n: int) -> "GF2Vector":
        return cls(n)

    @classmethod
    def from_bits(cls, bits) -> "GF2Vector":
        """Integer entries, read mod 2."""
        bits = _integers(list(bits), "vector entries")
        return cls(len(bits), _bits_value(bits))

    @property
    def words(self) -> np.ndarray:
        """The bits packed into read-only 64-bit words."""
        return _words([self.value], self.n)[0]

    def copy(self) -> "GF2Vector":
        return GF2Vector(self.n, self.value)

    def get(self, i: int) -> int:
        return (self.value >> _index(i, self.n, "index", f"a vector of length {self.n}")) & 1

    def is_zero(self) -> bool:
        return not self.value

    def support(self) -> list[int]:
        """Indices of the set bits, ascending."""
        return [i for i, bit in enumerate(_bit_string(self.value, self.n)) if bit == "1"]

    def to_bits(self) -> list[int]:
        return list(map(int, _bit_string(self.value, self.n)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Vector):
            return NotImplemented
        return self.n == other.n and self.value == other.value

    def __repr__(self) -> str:
        return f"GF2Vector({_bit_string(self.value, self.n)})"


class GF2Matrix:
    """A rows-by-cols bit matrix over GF(2), one int per row in `ints`."""

    __slots__ = ("rows", "cols", "ints")

    def __init__(self, rows: int, cols: int, ints: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if ints is None:
            _check_bytes(rows, cols)
            ints = [0] * rows
        self.rows = rows
        self.cols = cols
        self.ints = ints

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        _check_bytes(n, n)
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "GF2Matrix":
        """Rows of integer entries, read mod 2."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValidationError("rows have differing lengths")
        return cls(len(rows), ncols, [_bits_value(_integers(r, "matrix entries")) for r in rows])

    @classmethod
    def from_triplets(cls, rows: int, cols: int, coords) -> "GF2Matrix":
        """Build from (row, col) positions; repeated positions cancel mod 2.

        coords is an integer array of shape (k, 2), checked by its dtype
        alone, or an iterable of pairs of integers, split by one strict zip
        and checked by one pass over their types; floats and bools are
        refused, and so is any position out of range, even a repeated one
        that would cancel.  The byte ceiling is not applied here: callers
        that build large matrices check it first, as assembly does.
        """
        pairs, r, c = _positions(coords)
        ints = [0] * rows
        # a row past the end or a negative column fails in the loop; a
        # negative row or a column past the end would not, and could cancel
        if r and (min(r) < 0 or max(c) >= cols):
            raise ValidationError("triplet coordinate out of range")
        try:
            for i, j in pairs:
                ints[i] ^= 1 << j
        except (IndexError, ValueError):
            raise ValidationError("triplet coordinate out of range") from None
        return cls(rows, cols, ints)

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> "GF2Matrix":
        import numpy as np

        return cls(*np.shape(arr), _ints(_pack(arr)))

    # -- element access ------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        """The rows packed into read-only (rows, words) uint64, bit j of
        row i at bit j % 64 of word j // 64."""
        return _words(self.ints, self.cols)

    def _shape(self) -> str:
        return f"a {self.rows}x{self.cols} matrix"

    def get(self, i: int, j: int) -> int:
        i = _index(i, self.rows, "row", self._shape())
        return (self.ints[i] >> _index(j, self.cols, "column", self._shape())) & 1

    def copy(self) -> "GF2Matrix":
        return GF2Matrix(self.rows, self.cols, list(self.ints))

    def row(self, i: int) -> GF2Vector:
        return GF2Vector(self.cols, self.ints[_index(i, self.rows, "row", self._shape())])

    def column(self, j: int) -> GF2Vector:
        j = _index(j, self.cols, "column", self._shape())
        return GF2Vector(self.rows, _bits_value([x >> j for x in self.ints]))

    def columns(self) -> list[GF2Vector]:
        return [GF2Vector(self.rows, v) for v in _transpose(self.ints, self.cols)]

    def is_zero(self) -> bool:
        return not any(self.ints)

    def to_rows(self) -> list[list[int]]:
        return [list(map(int, _bit_string(x, self.cols))) for x in self.ints]

    def to_bool_array(self) -> np.ndarray:
        """Unpacked bits; meant for small matrices (tests, tensor assembly)."""
        if self.rows * self.cols > (1 << 28):
            raise SizeError(f"refusing to unpack a {self.rows}x{self.cols} matrix")
        return _unpack(self.words, self.cols).astype(bool)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "GF2Matrix":
        """Copy of the half-open row and column range."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValidationError("submatrix range out of bounds")
        mask = (1 << (c1 - c0)) - 1
        return GF2Matrix(r1 - r0, c1 - c0, [(x >> c0) & mask for x in self.ints[r0:r1]])

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(self.cols, self.rows, _transpose(self.ints, self.cols))

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
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        _check_bytes(self.rows, other.cols)
        if not any(self.ints) or not any(other.ints):
            return GF2Matrix(self.rows, other.cols, [0] * self.rows)
        return GF2Matrix(self.rows, other.cols, list(_product_rows(self.ints, other.ints)))

    def compose_is_zero(self, other: "GF2Matrix") -> bool:
        """True iff self @ other is the zero matrix, found row by row
        without building the product; stops at the first nonzero row."""
        if self.cols != other.rows:
            raise ValidationError("shape mismatch in composition")
        return not any(_product_rows(self.ints, other.ints))

    # -- elimination ----------------------------------------------------

    def rank(self) -> int:
        """The number of rows that insertion by lowest set bit stores."""
        return _stored(self.ints)

    def nullspace_basis(self) -> list[GF2Vector]:
        """Basis of the right kernel, one vector per free column, ascending:
        the kernel tags of `reduce_columns`."""
        kernel, _ = reduce_columns(self)
        return [GF2Vector(self.cols, v) for v in kernel]


def _positions(coords) -> tuple:
    """(row, col) positions as pairs of ints, and their rows and columns."""
    np = sys.modules.get("numpy")  # an array can only come from a loaded numpy
    if np is not None and isinstance(coords, np.ndarray):
        if not coords.size:
            return [], [], []
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValidationError("coords must be pairs (row, col)")
        if coords.dtype.kind not in "iu":
            raise ValidationError(f"coords must be integers, got {coords.dtype}")
        r, c = coords[:, 0].tolist(), coords[:, 1].tolist()
        return zip(r, c), r, c
    pairs = list(coords)
    if not pairs:
        return [], [], []
    try:  # strict: every pair as long as the first, and exactly two of them
        r, c = zip(*pairs, strict=True)
    except (TypeError, ValueError):
        raise ValidationError("coords must be pairs (row, col)") from None
    if set(map(type, r + c)) <= {int}:
        return pairs, r, c
    r, c = _integers(list(r), "coords"), _integers(list(c), "coords")
    return zip(r, c), r, c


def _product_rows(a: list[int], b: list[int]):
    """The rows of the product of row ints a and b, one at a time: for
    each row of a, the XOR of the rows b[j] at its set bits j."""
    for x in a:
        acc = 0
        while x:
            low = x & -x
            acc ^= b[low.bit_length() - 1]
            x ^= low
        yield acc


class QuotientSpace:
    """Coordinates on span(cycles) / span(boundaries), pivot-based.

    Boundaries are inserted first, then the cycles in their given order;
    each cycle that contributes a new pivot becomes a quotient basis
    vector.  Reduction always targets the lowest set bit, so coordinates
    are deterministic given the input order.  The boundaries must lie in
    the span of the cycles.

    Vectors are GF2Vectors or nonnegative Python integers (bit j is entry
    j).  `n` is the vector length; it is needed for integers and when both
    lists are empty, and otherwise defaults to the first GF2Vector's.
    `boundaries` may also be the table that inserting them builds, {lowest
    set bit: stored row} in insertion order, as `reduce_columns` returns it
    for the columns of a differential.

    Everything is built on Python integers, one per vector.  The
    boundaries lie in the cycle span exactly when the table of boundaries
    and cycles has as many rows as the cycles have rank.  A vector's
    coefficients on the table rows depend only on its bits at the pivots,
    through the inverse of the table's unit-triangular pivot block.  The
    rows of that inverse for the quotient basis, stacked over the rows that
    vanish exactly on the table's span, turn coordinates of many vectors
    into one product; they are built on the first `coordinates` call.
    """

    def __init__(self, cycles, boundaries, n: int = 0):
        cycles = list(cycles)
        prebuilt = boundaries if isinstance(boundaries, dict) else None
        boundaries = list(boundaries.values() if prebuilt is not None else boundaries)
        self.n = n = n or next((v.n for v in cycles + boundaries if isinstance(v, GF2Vector)), 0)
        z = _vector_ints(cycles, n, "cycle")
        b = _vector_ints(boundaries, n, "boundary")

        table = dict(prebuilt or {})  # lowest set bit -> stored row
        if prebuilt is None:
            for v in b:
                _insert(table, v)
        reps = [r for r, _ in (_insert(table, v) for v in z) if r]
        if len(table) != _rank(z):
            # some boundary is outside the cycle span; name the first one
            span: dict[int, int] = {}
            for v in z:
                _insert(span, v)
            i = next(i for i, v in enumerate(b) if _insert(span, v)[0])
            raise MembershipError(f"boundary {i} is not in the span of the cycles")
        self.dim = len(reps)
        # Columns are the representatives, in quotient basis order.
        self.representatives = GF2Matrix(n, self.dim, _transpose(reps, n))
        # The quotient basis rows come last in the table: they were inserted last.
        self._table = table
        self._apply: GF2Matrix | None = None  # built by the first coordinates call
        self._free: list[int] = []

    def _build_apply(self) -> None:
        """The quotient-basis rows of the inverse pivot block, stacked over
        the check rows at the non-pivot positions, as one matrix."""
        n, dim = self.n, self.dim
        stored = list(self._table.values())
        m = len(stored)
        # Table rows: the quotient basis, then the boundary rows.  Going
        # down from the highest pivot, the coefficients that pick out pivot
        # p are p's own row plus those of the other pivots its row hits.
        rows = stored[m - dim :] + stored[: m - dim]
        index = {r & -r: j for j, r in enumerate(rows)}
        mask = sum(index)
        coeffs = [0] * n  # at each pivot, its coefficients on the table rows
        for low in sorted(index, reverse=True):
            c, rest = 1 << index[low], (self._table[low] & mask) ^ low
            while rest:
                hit = rest & -rest
                c ^= coeffs[hit.bit_length() - 1]
                rest ^= hit
            coeffs[low.bit_length() - 1] = c
        solve = _transpose(coeffs, m)  # row j: the pivots whose coefficients use table row j
        # v - table^T (solve v) is zero at the pivots; its rows at the other
        # positions must vanish.
        self._free = free = [i for i, c in enumerate(coeffs) if not c]
        on_rows = _transpose([r & ~mask for r in rows], n)  # per position, the rows that hit it
        check = [(1 << f) ^ c for f, c in zip(free, _product_rows([on_rows[f] for f in free], solve))]
        self._apply = GF2Matrix(dim + len(free), n, solve[:dim] + check)
        self._table = None

    def representative(self, q: int) -> GF2Vector:
        """A cycle representative of the q-th quotient basis class."""
        return self.representatives.column(_index(q, self.dim, "class", f"a quotient of dimension {self.dim}"))

    def coordinates(self, v):
        """Quotient coordinates of the class of v.

        v is a GF2Vector, or a GF2Matrix whose columns are the vectors;
        then the result's columns are their coordinates.  Raises
        MembershipError when a vector is not in the cycle span, which
        upstream means a broken chain map.
        """
        if self._apply is None:
            self._build_apply()
        vs = v if isinstance(v, GF2Matrix) else GF2Matrix(v.n, 1, _transpose([v.value], v.n))
        out = (self._apply @ vs).ints
        residual = out[self.dim :]
        if any(residual):
            hit = reduce(or_, residual)
            col = (hit & -hit).bit_length() - 1  # the first vector with a residual
            row = next(i for i, r in enumerate(residual) if (r >> col) & 1)
            raise MembershipError(f"vector has unreducible bit {self._free[row]}; not in the cycle span")
        coords = GF2Matrix(self.dim, vs.cols, out[: self.dim])
        return coords if vs is v else coords.column(0)


def _vector_ints(vectors: list, n: int, what: str) -> list[int]:
    """GF2Vectors of length n and ints below 1 << n, as ints (bit j is entry j)."""
    if set(map(type, vectors)) <= {int} and (not vectors or min(vectors) >= 0 and max(vectors).bit_length() <= n):
        return vectors
    out = []
    for i, v in enumerate(vectors):
        if isinstance(v, GF2Vector):
            if v.n != n:
                raise ValidationError(f"{what} {i} has length {v.n}, not {n}")
            out.append(v.value)
        elif isinstance(v, int) and not isinstance(v, bool):
            if v < 0:
                raise ValidationError(f"{what} {i} is a negative int")
            if v.bit_length() > n:
                raise ValidationError(f"{what} {i} has bit {v.bit_length() - 1} set, past length {n}")
            out.append(v)
        else:
            raise ValidationError(f"{what} {i} must be a GF2Vector or an int, got {type(v).__name__}")
    return out


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
    ints[i] has bit b set.  Costs one step per set bit, which suits the
    sparse tables that differentials give."""
    out = [0] * width
    for i, x in enumerate(ints):
        while x:
            low = x & -x
            out[low.bit_length() - 1] |= 1 << i
            x ^= low
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
    that vanish, which is the kernel basis `nullspace_basis` gives (the tag
    of free column j is supported on j and earlier pivot columns, and that
    kernel vector is unique), and the stored columns, which are the table
    a QuotientSpace builds from m's columns as boundaries.
    """
    table: dict[int, int] = {}  # lowest set bit -> stored column
    tags: dict[int, int] = {}
    kernel = []
    for j, v in enumerate(_transpose(m.ints, m.cols)):
        row, t = _insert(table, v, tags, 1 << j)
        if not row:
            kernel.append(t)
    return kernel, table


def _ints(words: np.ndarray) -> list[int]:
    """Each row of packed words as an int, bit j being column j."""
    return [int.from_bytes(row, "little") for row in words]


def _words(ints, cols: int) -> np.ndarray:
    """Python integers (bit j is column j) packed as read-only rows of uint64 words."""
    import numpy as np

    ints = list(ints)
    nbytes = _nwords(cols) * 8
    blob = b"".join(map(int.to_bytes, ints, repeat(nbytes), repeat("little")))
    return np.frombuffer(blob, dtype=np.uint64).reshape(len(ints), _nwords(cols))
