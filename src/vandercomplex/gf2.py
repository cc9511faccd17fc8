"""Exact linear algebra over the two-element field.

Matrices are dense bit matrices packed row-major into 64-bit words, so a
row operation is a handful of word XORs and elimination runs at memory
speed through numpy.  Packing, products, kernels and quotient coordinates
are whole-array operations; no loop runs over single bits.  Everything
here is deterministic: pivots are chosen as the first nonzero row at the
lowest row index, and quotient coordinates always reduce against the
lowest set bit first, so identical inputs give identical output bits on
every run.

Reductions that build tables run on Python integers, one per vector, each
reduced by the stored row at its lowest set bit: `reduce_columns` reduces
a differential's columns once, giving both its kernel basis and the
boundary table of the next level, and `QuotientSpace` inserts its cycles
the same way.

Vectors carry their own packed words.  Matrix values are treated as
immutable by the rest of the package; rank and reduction work on private
copies.  A product reads the set bits of its left factor as (row, column)
pairs, and only pays for work that is nonzero and not already known:

- a matrix built from positions keeps them, so its first product groups
  them by row instead of reading them back off the words.  That is every
  `from_triplets` matrix, and every level of an assembled complex or chain
  map, which `_from_level_triplets` fills with one scatter;
- a matrix that has been the left factor of a product keeps its pairs for
  the next one;
- a product with an empty or all-zero factor returns the zero matrix at
  once, recording the empty pairs of a left factor that has no set bits.

A matrix that keeps positions or pairs has read-only words, so they cannot
go stale.
"""

import numpy as np

from .errors import MembershipError, SizeError, ValidationError

if not np.little_endian:  # pragma: no cover
    raise ImportError("bit packing relies on little-endian word layout")

_U64_1 = np.uint64(1)

# Hard ceiling on a single allocation (bytes of packed words).  Protects
# against accidentally materializing matrices for oversized complexes.
MAX_MATRIX_BYTES = 2 << 30

# Words of temporaries a sparse product may hold at once; larger products
# run in chunks.
CHUNK_WORDS = 1 << 18


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


def _pack(bits) -> np.ndarray:
    """Pack a (rows, cols) array of nonzero-means-set into (rows, words) uint64."""
    rows, cols = np.shape(bits)
    out = np.zeros((rows, _nwords(cols) * 8), dtype=np.uint8)
    out[:, : (cols + 7) >> 3] = np.packbits(np.asarray(bits, dtype=bool), axis=1, bitorder="little")
    return out.view(np.uint64)


def _others(n: int, taken) -> np.ndarray:
    """The indices below n that are not in taken, ascending."""
    keep = np.ones(n, dtype=bool)
    keep[taken] = False
    return np.flatnonzero(keep)


def _unpack(words: np.ndarray, cols: int) -> np.ndarray:
    """The first `cols` bits of each row of packed words, as 0/1 uint8."""
    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :cols]


class GF2Vector:
    """A length-n bit vector packed into 64-bit words."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray):
        self.n = n
        self.words = words

    @classmethod
    def zeros(cls, n: int) -> "GF2Vector":
        return cls(n, np.zeros(_nwords(n), dtype=np.uint64))

    @classmethod
    def from_bits(cls, bits) -> "GF2Vector":
        bits = np.fromiter(bits, dtype=np.int64) & 1
        return cls(len(bits), _pack(bits[None])[0])

    def copy(self) -> "GF2Vector":
        return GF2Vector(self.n, self.words.copy())

    def get(self, i: int) -> int:
        w, b = divmod(i, 64)
        return int(self.words[w] >> np.uint64(b)) & 1

    def is_zero(self) -> bool:
        return not self.words.any()

    def lowest_set_bit(self) -> int | None:
        for w, word in enumerate(self.words):
            word = int(word)
            if word:
                return (w << 6) + ((word & -word).bit_length() - 1)
        return None

    def support(self) -> list[int]:
        """Indices of the set bits, ascending."""
        return np.flatnonzero(_unpack(self.words, self.n)).tolist()

    def to_bits(self) -> list[int]:
        return _unpack(self.words, self.n).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Vector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __repr__(self) -> str:
        return f"GF2Vector({''.join(map(str, self.to_bits()))})"


class GF2Matrix:
    """A rows-by-cols bit matrix over GF(2), word-packed per row.

    Bits past `cols` in the last word of each row are kept zero so whole
    rows can be combined with word operations.
    """

    __slots__ = ("rows", "cols", "words", "_positions", "_support")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if words is None:
            _check_bytes(rows, cols)
            words = np.zeros((rows, _nwords(cols)), dtype=np.uint64)
        self.rows = rows
        self.cols = cols
        self.words = words
        self._positions = None  # (rows, cols) the matrix was built from
        self._support = None  # set by the first product that fits one chunk

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        m = cls(n, n)
        i = np.arange(n)
        m.words[i, i >> 6] = _U64_1 << (i & 63).astype(np.uint64)
        return m

    @classmethod
    def from_rows(cls, rows) -> "GF2Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValidationError("rows have differing lengths")
        bits = np.array(rows, dtype=np.int64).reshape(len(rows), ncols) & 1
        return cls(len(rows), ncols, _pack(bits))

    @classmethod
    def from_triplets(cls, rows: int, cols: int, coords) -> "GF2Matrix":
        """Build from (row, col) positions; repeated positions cancel mod 2."""
        m = cls(rows, cols)
        arr = np.asarray(list(coords) if not isinstance(coords, np.ndarray) else coords, dtype=np.int64)
        if arr.size == 0:
            return m
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("coords must be pairs (row, col)")
        r = arr[:, 0]
        c = arr[:, 1]
        top = arr.max(axis=0)
        if arr.min() < 0 or top[0] >= rows or top[1] >= cols:
            raise ValidationError("triplet coordinate out of range")
        np.bitwise_xor.at(
            m.words,
            (r, c >> 6),
            _U64_1 << (c & 63).astype(np.uint64),
        )
        m._keep_positions(r, c)
        return m

    def _keep_positions(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Keep the positions self was built from for its first product."""
        self._positions = (rows, cols)
        self.words.flags.writeable = False

    # -- element access ------------------------------------------------

    def get(self, i: int, j: int) -> int:
        w, b = divmod(j, 64)
        return int(self.words[i, w] >> np.uint64(b)) & 1

    def copy(self) -> "GF2Matrix":
        return GF2Matrix(self.rows, self.cols, self.words.copy())

    def row(self, i: int) -> GF2Vector:
        return GF2Vector(self.cols, self.words[i].copy())

    def column(self, j: int) -> GF2Vector:
        w, b = divmod(j, 64)
        bits = (self.words[:, w] >> np.uint64(b)) & _U64_1
        return GF2Vector(self.rows, _pack(bits[None])[0])

    def columns(self) -> list[GF2Vector]:
        return [GF2Vector(self.rows, words) for words in self.transpose().words]

    def is_zero(self) -> bool:
        return not self.words.any()

    def to_rows(self) -> list[list[int]]:
        return _unpack(self.words, self.cols).tolist()

    def to_bool_array(self) -> np.ndarray:
        """Unpacked bits; meant for small matrices (tests, tensor assembly)."""
        if self.rows * self.cols > (1 << 28):
            raise SizeError(f"refusing to unpack a {self.rows}x{self.cols} matrix")
        return _unpack(self.words, self.cols).astype(bool)

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> "GF2Matrix":
        return cls(*np.shape(arr), _pack(arr))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "GF2Matrix":
        """Copy of the half-open row and column range."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValidationError("submatrix range out of bounds")
        if (r1 - r0) * self.cols > (1 << 28):
            raise SizeError(f"refusing to unpack {r1 - r0} rows of {self.cols} columns")
        return GF2Matrix.from_bool_array(_unpack(self.words[r0:r1], c1)[:, c0:])

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix.from_bool_array(self.to_bool_array().T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def _row_support(self, i: int) -> np.ndarray:
        row = self.words[i]
        if not row.any():
            return np.empty(0, dtype=np.int64)
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")[: self.cols]
        return np.nonzero(bits)[0]

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        """Sparse product: each output row XORs the rows of other that self selects.

        The selected (row, column) pairs come from the positions self was
        built from, or from self's last product, or else are read off its
        nonzero words in chunks of whole words that keep the temporaries
        near CHUNK_WORDS.  When they fit one chunk they are kept for self's
        next product.  A factor without set bits gives the zero matrix at
        once.
        """
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = GF2Matrix(self.rows, other.cols)
        # a pair gathers one row of other and keeps four index words
        budget = max(64, CHUNK_WORDS // (other.words.shape[1] + 4))
        kept = self._support
        if kept is None:
            if self._positions is not None and self._positions[0].size <= budget:
                rows, cols = self._positions
                order = np.argsort(rows, kind="stable")
                kept = self._keep_support(_by_row(rows[order], cols[order]))
            elif not self.words.any():
                kept = self._keep_support(_NO_PAIRS)
        if (kept is not None and not kept[0].size) or not other.words.any():
            return out
        chunks = [kept] if kept is not None and kept[0].size <= budget else self._chunks(budget)
        for gather, starts, targets in chunks:
            # a row cut between two chunks gets both parts XORed in
            out.words[targets] ^= np.bitwise_xor.reduceat(other.words[gather], starts, axis=0)
        return out

    def _keep_support(self, pairs):
        """Keep self's set bits as pairs for its next product; words go read-only."""
        self._support = pairs
        self._positions = None
        self.words.flags.writeable = False
        return pairs

    def _chunks(self, budget: int):
        """Yield self's set bits as (column, first pair of each row, row)
        arrays, in chunks of whole words of at most `budget` pairs each (or
        one word).  A matrix that fits one chunk keeps it."""
        r, w = np.nonzero(self.words)
        vals = self.words[r, w]
        cuts = [0, r.size]
        if r.size * 64 > budget:
            pairs = np.cumsum(np.bitwise_count(vals), dtype=np.int64)
            cuts = [0, *np.searchsorted(pairs, np.arange(budget, pairs[-1], budget), side="right"), r.size]
        for lo, hi in zip(cuts, cuts[1:]):
            bits = np.unpackbits(vals[lo:hi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            k, b = np.nonzero(bits)
            chunk = _by_row(r[lo:hi][k], (w[lo:hi][k] << 6) + b)
            if len(cuts) == 2:
                self._keep_support(chunk)
            yield chunk

    def compose_is_zero(self, other: "GF2Matrix") -> bool:
        """True iff self @ other is the zero matrix, without storing it."""
        if self.cols != other.rows:
            raise ValidationError("shape mismatch in composition")
        for i in range(self.rows):
            idx = self._row_support(i)
            if idx.size and np.bitwise_xor.reduce(other.words[idx], axis=0).any():
                return False
        return True

    def mul_vector(self, v: GF2Vector) -> GF2Vector:
        if v.n != self.cols:
            raise ValidationError("vector length does not match matrix columns")
        parities = np.bitwise_count(self.words & v.words).sum(axis=1) & 1
        return GF2Vector(self.rows, _pack(parities[None])[0])

    # -- elimination ----------------------------------------------------

    def rank(self) -> int:
        work = self.words.copy()
        return len(_eliminate(work, self.rows, self.cols, full=False))

    def rref(self) -> tuple["GF2Matrix", list[int]]:
        """Reduced row echelon form and its pivot columns."""
        work = self.words.copy()
        pivots = _eliminate(work, self.rows, self.cols, full=True)
        return GF2Matrix(self.rows, self.cols, work), pivots

    def nullspace_basis(self) -> list[GF2Vector]:
        """Basis of the right kernel, one vector per free column, ascending."""
        reduced, pivots = self.rref()
        free = _others(self.cols, pivots)
        bits = np.zeros((free.size, self.cols), dtype=np.uint8)
        bits[np.arange(free.size), free] = 1
        bits[:, pivots] = _unpack(reduced.words[: len(pivots)], self.cols)[:, free].T
        return [GF2Vector(self.cols, words) for words in _pack(bits)]


_NO_PAIRS = (np.empty(0, dtype=np.int64),) * 3


def _by_row(rows: np.ndarray, cols: np.ndarray):
    """Pairs sorted by row as (column, first pair of each row, row)."""
    first = np.ones(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return cols, starts, rows[starts]


def _from_level_triplets(shapes, level, rows, cols) -> list[GF2Matrix]:
    """One matrix per (rows, cols) shape, with a bit at (rows[t], cols[t])
    of matrix level[t] for every t, filled by one scatter.

    The positions must lie inside their matrix and be grouped by level in
    ascending order; repeated positions cancel mod 2.  The matrices' words
    are consecutive views of one buffer, which `from_triplets` fills as a
    matrix with one row per packed word, and each matrix keeps its own
    positions for its first product.
    """
    widths = np.array([_nwords(c) for _, c in shapes], dtype=np.int64)
    base = np.zeros(len(shapes) + 1, dtype=np.int64)
    np.cumsum([r for r, _ in shapes] * widths, out=base[1:])
    word = base[level] + rows * widths[level] + (cols >> 6)
    coords = np.empty((word.size, 2), dtype=np.int64)
    coords[:, 0] = word
    np.bitwise_and(cols, 63, out=coords[:, 1])
    flat = GF2Matrix.from_triplets(int(base[-1]), 64, coords).words[:, 0]
    cuts = np.searchsorted(level, np.arange(len(shapes) + 1)).tolist()
    out = []
    for k, (r, c) in enumerate(shapes):
        m = GF2Matrix(r, c, flat[base[k] : base[k + 1]].reshape(r, widths[k]))
        m._keep_positions(rows[cuts[k] : cuts[k + 1]], cols[cuts[k] : cuts[k + 1]])
        out.append(m)
    return out


def _eliminate(words: np.ndarray, nrows: int, cols: int, full: bool) -> list[int]:
    """In-place Gaussian elimination; returns the pivot columns.

    full=False leaves row echelon form (enough for rank), full=True clears
    above the pivots too.  Pivot rows are chosen as the first nonzero row
    from the top, which fixes the output bit for bit.
    """
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= nrows:
            break
        w, b = divmod(c, 64)
        bit = _U64_1 << np.uint64(b)
        candidates = np.nonzero(words[r:, w] & bit)[0]
        if candidates.size == 0:
            continue
        p = r + int(candidates[0])
        if p != r:
            words[[r, p]] = words[[p, r]]
        if full:
            hits = np.nonzero(words[:, w] & bit)[0]
            hits = hits[hits != r]
        else:
            hits = np.nonzero(words[r + 1 :, w] & bit)[0] + (r + 1)
        if hits.size:
            words[hits] ^= words[r]
        pivots.append(c)
        r += 1
    return pivots


class QuotientSpace:
    """Coordinates on span(cycles) / span(boundaries), pivot-based.

    Boundaries are inserted first, then the cycles in their given order;
    each cycle that contributes a new pivot becomes a quotient basis
    vector.  Reduction always targets the lowest set bit, so coordinates
    are deterministic given the input order.  The boundaries must lie in
    the span of the cycles.

    Vectors are GF2Vectors or Python integers (bit j is entry j).  `n`, the
    vector length, is needed for integers and when both lists are empty.
    `boundaries` may also be the table that inserting them builds, {lowest
    set bit: stored row} in insertion order, as `reduce_columns` returns it
    for the columns of a differential.

    The table is built on Python integers, one per vector.  A vector's
    coefficients on the table rows depend only on its bits at the pivots,
    through the inverse of the table's unit-triangular pivot block.  The
    rows of that inverse for the quotient basis, stacked over the rows that
    vanish exactly on the table's span, turn coordinates of many vectors
    into one product.
    """

    def __init__(self, cycles, boundaries, n: int = 0):
        cycles = list(cycles)
        prebuilt = boundaries if isinstance(boundaries, dict) else None
        boundaries = list(boundaries.values() if prebuilt is not None else boundaries)
        self.n = n = next((v.n for v in cycles + boundaries if isinstance(v, GF2Vector)), n)
        z = [_int(v) for v in cycles]
        b = [_int(v) for v in boundaries]

        # The boundaries must lie inside the cycle space.
        span: dict[int, int] = {}
        for v in z:
            _insert(span, v)
        for i, v in enumerate(b):
            if _insert(span, v)[0]:
                raise MembershipError(f"boundary {i} is not in the span of the cycles")

        table: dict[int, int] = {}  # lowest set bit -> stored row
        if prebuilt is not None:
            table.update(prebuilt)
        else:
            for v in b:
                _insert(table, v)
        reps = [r for r, _ in (_insert(table, v) for v in z) if r]
        self.dim = len(reps)
        # Columns are the representatives, in quotient basis order.
        self.representatives = GF2Matrix(self.dim, n, _words(reps, n)).transpose()

        # Table rows: the quotient basis, then the boundary rows.  Going
        # down from the highest pivot, the coefficients that pick out pivot
        # p are p's own row plus those of the other pivots its row hits.
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
        solve_t = GF2Matrix(n, m)
        solve_t.words[pivots] = _words(coeffs.values(), m)
        solve = solve_t.transpose()
        # v - table^T (solve v) is zero at the pivots; the rows of it at the
        # other positions must vanish.
        self._free = free = _others(n, pivots)
        rows_t = GF2Matrix(m, n, _words(rows, n)).transpose()
        check = GF2Matrix(free.size, m, rows_t.words[free]) @ solve
        check.words[np.arange(free.size), free >> 6] ^= _U64_1 << (free & 63).astype(np.uint64)
        self._apply = GF2Matrix(self.dim + free.size, n, np.vstack([solve.words[: self.dim], check.words]))

    def representative(self, q: int) -> GF2Vector:
        """A cycle representative of the q-th quotient basis class."""
        return self.representatives.column(q)

    def coordinates(self, v):
        """Quotient coordinates of the class of v.

        v is a GF2Vector, or a GF2Matrix whose columns are the vectors;
        then the result's columns are their coordinates.  Raises
        MembershipError when a vector is not in the cycle span, which
        upstream means a broken chain map.
        """
        vs = v if isinstance(v, GF2Matrix) else GF2Matrix.from_bool_array(_unpack(v.words, v.n)[:, None])
        out = self._apply @ vs
        residual = _unpack(out.words[self.dim :], vs.cols)
        if residual.any():
            col = np.flatnonzero(residual.any(axis=0))[0]
            bit = self._free[np.flatnonzero(residual[:, col])[0]]
            raise MembershipError(f"vector has unreducible bit {bit}; not in the cycle span")
        coords = GF2Matrix(self.dim, vs.cols, out.words[: self.dim])
        return coords if vs is v else coords.column(0)


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


def _int(v) -> int:
    """A GF2Vector or an int as an int, bit j being entry j."""
    return v if isinstance(v, int) else int.from_bytes(v.words.tobytes(), "little")


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
    for j, v in enumerate(_ints(m.transpose().words)):
        row, t = _insert(table, v, tags, 1 << j)
        if not row:
            kernel.append(t)
    return kernel, table


def _ints(words: np.ndarray) -> list[int]:
    """Each row of packed words as an int, bit j being column j."""
    nbytes = words.shape[1] * 8
    blob = words.tobytes()
    return [int.from_bytes(blob[i * nbytes : (i + 1) * nbytes], "little") for i in range(len(words))]


def _words(ints, cols: int) -> np.ndarray:
    """Python integers (bit j is column j) packed as rows of uint64 words."""
    ints = list(ints)
    nbytes = _nwords(cols) * 8
    blob = bytearray(b"".join(x.to_bytes(nbytes, "little") for x in ints))
    return np.frombuffer(blob, dtype=np.uint64).reshape(len(ints), _nwords(cols))


def coset_coordinates(cycles, boundaries, v: GF2Vector) -> GF2Vector:
    """Coordinates of v's class in span(cycles)/span(boundaries)."""
    return QuotientSpace(cycles, boundaries).coordinates(v)
