"""Dense matrices over a single field, with the exact kernels the rest of the
toolkit needs: multiplication (zero-skipping, so monomial matrices stay cheap)
and one elimination over field elements, _row_reduce, behind the determinant,
the inverse, the rank and the nullspace.  _row_reduce_mod is the same
elimination on integer rows mod a prime, behind the determinant over a prime
field.  _kernel_basis reads a kernel basis off any reduced echelon form
given as dict rows.
"""

from __future__ import annotations

from itertools import chain

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
        return cls._trusted(
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
            if self.field._byte_width == 1:
                entries = chain.from_iterable(self.rows)
                self._bytes = bytes(chain.from_iterable(e.coeffs for e in entries))
            else:
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
        # the nonzero entries of each row of other, tested once per product;
        # the field's own zero, which most zero entries are, by identity
        nonzero = [[(j, b) for j, b in enumerate(row) if b is not zero and b] for row in other.rows]
        out = []
        for arow in self.rows:
            acc = [zero] * other.ncols
            for aval, brow in zip(arow, nonzero):
                if aval is zero or not aval:
                    continue
                for j, bval in brow:
                    # a row's first product is stored, not added to zero
                    cur = acc[j]
                    acc[j] = aval * bval if cur is zero else cur + aval * bval
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

    def _check_same_shape(self, other: "Matrix", op: str) -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch {self.nrows}x{self.ncols} {op} {other.nrows}x{other.ncols}"
            )

    def __add__(self, other):
        self._check_same_shape(other, "+")
        return Matrix._trusted(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._check_same_shape(other, "-")
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

    # -- elimination-based kernels -------------------------------------------

    def det(self) -> FieldElement:
        """The determinant; over a prime field by _row_reduce_mod on the
        integer entries."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        fld = self.field
        if fld.k == 1:
            ints = [[e.coeffs[0] for e in row] for row in self.rows]
            return FieldElement(fld, (_row_reduce_mod(fld.p, ints, self.ncols)[1],))
        return _row_reduce(fld, [list(r) for r in self.rows], self.ncols)[2]

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        one, zero = self.field.one, self.field.zero
        work = [
            list(r) + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(self.rows)
        ]
        work, _, det = _row_reduce(self.field, work, n, reduced=True)
        if det.is_zero():
            raise SingularMatrix("matrix is singular")
        return Matrix._trusted(self.field, [row[n:] for row in work])

    def rank(self) -> int:
        return len(_row_reduce(self.field, [list(r) for r in self.rows], self.ncols)[1])


def _dot(u, v, field: FieldDescriptor) -> FieldElement:
    """sum_i u_i v_i over field elements."""
    acc = field.zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _row_reduce(field: FieldDescriptor, work: list[list[FieldElement]], ncols: int, reduced=False):
    """In-place elimination over the first ncols columns; returns (rows, pivot
    column list, det).  Forward elimination clears below each pivot only; with
    reduced it scales each pivot row and clears above too, leaving the reduced
    echelon form.  Both find the same pivots.  When ncols == len(work), det is
    the determinant of those columns: the sign of the row swaps times the
    product of the pivots, and zero when a column has no pivot."""
    pivots: list[int] = []
    r = 0
    nrows = len(work)
    one = field.one
    det = one
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
        inv = None if pivot == one else pivot.inverse()
        if reduced and inv is not None:
            work[r] = prow = [inv * v if v else v for v in prow]
            inv = None
        for i in range(0 if reduced else r + 1, nrows):
            f = work[i][c]
            if f and i != r:
                if inv is not None:
                    f = f * inv
                work[i] = [a - f * b if b else a for a, b in zip(work[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots, det


def _row_reduce_mod(
    p: int, work: list[list[int]], ncols: int, reduced=False
) -> tuple[list[int], int]:
    """_row_reduce on integer rows with entries in [0, p), p prime, in place;
    returns (pivot column list, det mod p).  With reduced the rows are left
    in reduced echelon form, as in _row_reduce."""
    pivots: list[int] = []
    r = 0
    nrows = len(work)
    det = 1
    for c in range(ncols):
        for sel in range(r, nrows):
            if work[sel][c]:
                break
        else:
            det = 0
            continue
        if sel != r:
            work[r], work[sel] = work[sel], work[r]
            det = -det
        prow = work[r]
        det = det * prow[c] % p
        inv = pow(prow[c], -1, p)
        if reduced:
            work[r] = prow = [v * inv % p for v in prow]
            inv = 1
        for i in range(0 if reduced else r + 1, nrows):
            f = work[i][c]
            if f and i != r:
                f = f * inv % p
                work[i] = [(a - f * b) % p for a, b in zip(work[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, det % p


def nullspace(A: Matrix) -> list[tuple[FieldElement, ...]]:
    """Deterministic basis of the right kernel, from the reduced echelon form."""
    work, pivots, _ = _row_reduce(A.field, [list(r) for r in A.rows], A.ncols, reduced=True)
    rows = {c: dict(enumerate(work[r])) for r, c in enumerate(pivots)}
    return _kernel_basis(A.field, A.ncols, rows)


def _kernel_basis(field: FieldDescriptor, width: int, piv: dict) -> list[tuple[FieldElement, ...]]:
    """The kernel of a reduced echelon form given as pivot column -> row (a
    dict column -> entry): one vector per free column in ascending order, with
    1 at its free column and minus the pivot-row entries at the pivots."""
    one, zero = field.one, field.zero
    basis = []
    for fcol in range(width):
        if fcol not in piv:
            vec = [zero] * width
            vec[fcol] = one
            for pcol, prow in piv.items():
                v = prow.get(fcol)
                if v:
                    vec[pcol] = -v
            basis.append(tuple(vec))
    return basis
