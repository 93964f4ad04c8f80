"""Dense matrices over a single field, with the exact kernels the rest of the
toolkit needs: multiplication (zero-skipping, so monomial matrices stay cheap)
and one reduced-echelon elimination behind the determinant, the inverse, the
rank and the deterministic nullspace.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .ff import FieldDescriptor, FieldElement


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols", "_hash", "_bytes")

    def __init__(self, field: FieldDescriptor, rows):
        self.field = field
        self.rows = tuple(tuple(field.element(e) for e in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self._hash = None
        self._bytes = None

    @classmethod
    def _trusted(cls, field: FieldDescriptor, rows) -> "Matrix":
        """A matrix over rows that already hold elements of field, all of one
        length: no coercion and no shape check."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = tuple(map(tuple, rows))
        m.nrows = len(m.rows)
        m.ncols = len(m.rows[0]) if m.rows else 0
        m._hash = None
        m._bytes = None
        return m

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldDescriptor, r: int, c: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * c for _ in range(r)])

    @classmethod
    def diagonal(cls, field: FieldDescriptor, entries) -> "Matrix":
        entries = [field.element(e) for e in entries]
        zero = field.zero
        n = len(entries)
        return cls(
            field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    @classmethod
    def scalar(cls, field: FieldDescriptor, c, n: int) -> "Matrix":
        return cls.diagonal(field, [c] * n)

    # -- structure ---------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.field == other.field

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    def canonical_bytes(self) -> bytes:
        """Row-major concatenation of entry coefficient bytes; the sort key
        that makes group element lists deterministic."""
        if self._bytes is None:
            self._bytes = b"".join(e.to_bytes() for row in self.rows for e in row)
        return self._bytes

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, zip(*self.rows))

    def to_coeff_lists(self) -> list[list[list[int]]]:
        return [[list(e.coeffs) for e in row] for row in self.rows]

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        zero = self.field.zero
        orows = other.rows
        out = []
        for arow in self.rows:
            acc = [zero] * other.ncols
            for a, aval in enumerate(arow):
                if not aval:
                    continue
                brow = orows[a]
                for j, bval in enumerate(brow):
                    if bval:
                        acc[j] = acc[j] + aval * bval
            out.append(acc)
        return Matrix._trusted(self.field, out)

    def apply(self, vec):
        """Matrix times column vector (tuple of elements)."""
        zero = self.field.zero
        out = []
        for row in self.rows:
            acc = zero
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def scale(self, c) -> "Matrix":
        c = self.field.element(c)
        return Matrix._trusted(self.field, [[c * e for e in row] for row in self.rows])

    def __add__(self, other):
        return Matrix._trusted(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return Matrix._trusted(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix._trusted(self.field, [[-e for e in row] for row in self.rows])

    def __pow__(self, e: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def is_identity(self) -> bool:
        one, zero = self.field.one, self.field.zero
        return all(
            e == (one if i == j else zero)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    # -- elimination-based kernels -------------------------------------------

    def det(self) -> FieldElement:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _row_reduce(self.field, [list(r) for r in self.rows], self.ncols)[2]

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        one, zero = self.field.one, self.field.zero
        work = [
            list(r) + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(self.rows)
        ]
        work, _, det = _row_reduce(self.field, work, n)
        if det.is_zero():
            raise SingularMatrix("matrix is singular")
        return Matrix._trusted(self.field, [row[n:] for row in work])

    def rank(self) -> int:
        return len(_row_reduce(self.field, [list(r) for r in self.rows], self.ncols)[1])


def _row_reduce(field: FieldDescriptor, work: list[list[FieldElement]], ncols: int):
    """In-place RREF over the first ncols columns; returns (rows, pivot column
    list, det).  When ncols == len(work), det is the determinant of those
    columns: the sign of the row swaps times the product of the pivots, and
    zero when a column has no pivot."""
    pivots: list[int] = []
    r = 0
    nrows = len(work)
    det = field.one
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if work[i][c]), None)
        if sel is None:
            det = field.zero
            continue
        if sel != r:
            work[r], work[sel] = work[sel], work[r]
            det = -det
        prow = work[r]
        pivot = prow[c]
        det = det * pivot
        if pivot != field.one:
            inv = pivot.inverse()
            work[r] = prow = [inv * v if v else v for v in prow]
        for i in range(nrows):
            if i != r:
                f = work[i][c]
                if f:
                    row = work[i]
                    work[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots, det


def nullspace(A: Matrix) -> list[tuple[FieldElement, ...]]:
    """Deterministic basis of the right kernel, from the reduced echelon form.

    Basis vectors correspond to free columns in ascending order; each has 1 at
    its free column and minus the pivot-row entries elsewhere.
    """
    field = A.field
    work = [list(r) for r in A.rows]
    work, pivots, _ = _row_reduce(field, work, A.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(A.ncols) if c not in pivot_set]
    one, zero = field.one, field.zero
    basis = []
    for fcol in free:
        vec = [zero] * A.ncols
        vec[fcol] = one
        for r, pcol in enumerate(pivots):
            v = work[r][fcol]
            if v:
                vec[pcol] = -v
        basis.append(tuple(vec))
    return basis
