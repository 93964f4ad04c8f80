import itertools
import random

import pytest

from oracles import matrix_power, ring_mul, sparse_nullspace
from tamerep.errors import SingularMatrix
from tamerep.ff import make_field
from tamerep.linalg import Matrix, _row_reduce, nullspace


def test_nullspace_identity(F13):
    assert nullspace(Matrix.identity(F13, 3)) == []


def test_nullspace_zero(F3):
    basis = nullspace(Matrix(F3, [[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_nullspace_rank_one(F3):
    # det = 1 - 4 = -3 = 0 mod 3, so rank 1 and a 1-dimensional kernel
    a = Matrix(F3, [[1, 2], [2, 1]])
    assert a.det().is_zero()
    basis = nullspace(a)
    assert len(basis) == 1
    v = basis[0]
    assert all(e.is_zero() for e in a.apply(v))


def _random_matrix(field, rows, cols, rng):
    return Matrix(
        field, [[field.element(rng.randrange(field.q)) for _ in range(cols)] for _ in range(rows)]
    )


def test_nullspace_exactness_and_rank_nullity():
    rng = random.Random(11)
    for fld_spec in [(3, 1), (13, 1), (3, 2), (5, 2)]:
        field = make_field(*fld_spec)
        for _ in range(25):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            a = _random_matrix(field, rows, cols, rng)
            basis = nullspace(a)
            for v in basis:
                assert all(e.is_zero() for e in a.apply(v))
            rank = len(_row_reduce(field, [list(r) for r in a.rows], cols)[1])
            assert rank + len(basis) == cols


def test_nullspace_deterministic_reduced_form():
    field = make_field(5, 1)
    a = Matrix(field, [[1, 2, 3], [2, 4, 1]])
    b1 = nullspace(a)
    b2 = nullspace(Matrix(field, [[1, 2, 3], [2, 4, 1]]))
    assert b1 == b2
    # free column carries a 1
    assert any(e == field.one for v in b1 for e in v)


def test_matrix_mul_and_pow(F5):
    a = Matrix(F5, [[1, 1], [0, 1]])
    assert matrix_power(a, 5).rows[0][1] == F5.zero  # [[1,5],[0,1]] = identity in F_5
    assert matrix_power(a, 0) == Matrix.identity(F5, 2)
    assert matrix_power(a, -1) * a == Matrix.identity(F5, 2)


def _dense_product(A: Matrix, B: Matrix):
    """Oracle: every term A[i][a] * B[a][j], zeros included, formed by
    ring_mul on coefficient tuples and summed coefficient by coefficient."""
    f = A.field
    p, k = f.p, f.k

    def mul(x, y):
        return ring_mul(f.ring, x, y) if k > 1 else (x[0] * y[0] % p,)

    out = []
    for row in A.rows:
        out_row = []
        for j in range(B.ncols):
            acc = (0,) * k
            for a, brow in zip(row, B.rows):
                term = mul(a.coeffs, brow[j].coeffs)
                acc = tuple((u + v) % p for u, v in zip(acc, term))
            out_row.append(acc)
        out.append(out_row)
    return out


def test_matrix_mul_vs_dense_oracle():
    # entries drawn from zero, one, minus one and random elements, so rows
    # mix skipped zeros, unit products and kernel products
    rng = random.Random(41)
    for p, k in [(3, 1), (7, 1), (3, 4), (13, 4), (5, 16), (1000003, 2)]:
        f = make_field(p, k)
        pool = [f.zero, f.one, -f.one]

        def entry():
            return rng.choice(pool) if rng.random() < 0.7 else f.random_element(rng)

        for r, m, c in [(3, 3, 3), (2, 4, 3), (4, 1, 2), (5, 5, 5)]:
            A = Matrix(f, [[entry() for _ in range(m)] for _ in range(r)])
            B = Matrix(f, [[entry() for _ in range(c)] for _ in range(m)])
            got = [[e.coeffs for e in row] for row in (A * B).rows]
            assert got == _dense_product(A, B), (p, k, A, B)


def test_matrix_inverse_roundtrip():
    rng = random.Random(3)
    field = make_field(7, 1)
    found = 0
    while found < 10:
        a = _random_matrix(field, 4, 4, rng)
        if a.det().is_zero():
            continue
        found += 1
        assert a * a.inverse() == Matrix.identity(field, 4)


def test_singular_inverse_raises(F3):
    with pytest.raises(SingularMatrix):
        Matrix(F3, [[0, 0], [0, 0]]).inverse()


def test_add_sub_reject_shape_mismatch(F3):
    a, b = Matrix.identity(F3, 2), Matrix(F3, [[1, 2, 0]])
    for x, y in ((a, b), (b, a), (a, Matrix(F3, [[0, 0, 0], [0, 0, 0]]))):
        with pytest.raises(ValueError, match="shape mismatch"):
            x - y
    assert a - (a - a) == a


def test_det_multiplicative():
    rng = random.Random(5)
    field = make_field(11, 1)
    for _ in range(20):
        a = _random_matrix(field, 3, 3, rng)
        b = _random_matrix(field, 3, 3, rng)
        assert (a * b).det() == a.det() * b.det()


def _leibniz_det(a):
    """Oracle: the permutation-sum formula, with no elimination."""
    field, n = a.field, a.nrows
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -field.one if inversions % 2 else field.one
        for i, j in enumerate(perm):
            term = term * a[i, j]
        total = total + term
    return total


def test_det_and_inverse_vs_leibniz():
    rng = random.Random(29)
    for fld_spec in [(3, 1), (13, 1), (3, 2), (5, 2)]:
        field = make_field(*fld_spec)
        singular = 0
        for n in range(1, 6):
            for trial in range(9):
                a = _random_matrix(field, n, n, rng)
                if trial % 3 == 0:
                    # make the last row a combination of the others (zero when n = 1)
                    rows = [list(r) for r in a.rows]
                    c = field.element(rng.randrange(field.q))
                    rows[-1] = [c * x for x in rows[0]] if n > 1 else [field.zero]
                    if n > 2:
                        rows[-1] = [x + y for x, y in zip(rows[-1], rows[1])]
                    a = Matrix(field, rows)
                want = _leibniz_det(a)
                assert a.det() == want, (fld_spec, a)
                if want.is_zero():
                    singular += 1
                    with pytest.raises(SingularMatrix):
                        a.inverse()
                else:
                    inv = a.inverse()
                    ident = Matrix.identity(field, n)
                    assert a * inv == ident and inv * a == ident, (fld_spec, a)
        assert 15 <= singular < 45, (fld_spec, singular)


def test_prime_det_vs_field_elimination():
    # over F_p det eliminates on the integer entries; the elimination over
    # field elements is the oracle, at one- and two-byte p and past int64
    rng = random.Random(31)
    for p in (3, 7, 257, 2**31 - 1, 2**61 - 1):
        field = make_field(p, 1)
        zeros = 0
        for n in range(1, 7):
            for trial in range(6):
                a = _random_matrix(field, n, n, rng)
                if trial % 2 and n > 1:
                    # the last row a multiple of the first, so det = 0
                    c = field.element(rng.randrange(p))
                    a = Matrix(field, list(a.rows[:-1]) + [[c * x for x in a.rows[0]]])
                want = _row_reduce(field, [list(r) for r in a.rows], n)[2]
                assert a.det() == want, (p, a)
                zeros += want.is_zero()
        assert zeros >= 15, p


def test_canonical_bytes_distinguishes(F3):
    a = Matrix(F3, [[1, 0], [0, 1]])
    b = Matrix(F3, [[1, 0], [0, 2]])
    assert a.canonical_bytes() != b.canonical_bytes()
    assert a.canonical_bytes() == Matrix.identity(F3, 2).canonical_bytes()


def test_canonical_bytes_vs_per_entry_encoding():
    # byte width 1 joins the coefficients in one call; wider fields encode
    # entry by entry; both must give the per-entry to_bytes concatenation
    rng = random.Random(41)
    for fld_spec in [(3, 1), (13, 1), (3, 2), (13, 4), (257, 1)]:
        field = make_field(*fld_spec)
        for _ in range(20):
            n = rng.randrange(1, 6)
            a = Matrix(field, [[field.random_element(rng) for _ in range(n)] for _ in range(n)])
            want = b"".join(e.to_bytes() for row in a.rows for e in row)
            assert a.canonical_bytes() == want, (fld_spec, a)
            assert len(want) == n * n * field.k * field._byte_width


def _random_sparse_rows(field, nrows, width, rng):
    """Dict rows with up to four terms, some of them zero, some rows empty and
    some repeated or scaled copies of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            c = field.random_element(rng)
            rows.append({i: c * v for i, v in rng.choice(rows).items()})
        elif kind < 0.2:
            rows.append({})
        else:
            cols = rng.sample(range(width), rng.randint(1, min(4, width)))
            rows.append({i: field.random_element(rng) for i in cols})
    return rows


def test_sparse_nullspace_vs_dense_oracle(densified_nullspace):
    rng = random.Random(53)
    for fld_spec in [(3, 1), (13, 1), (3, 4), (5, 3)]:
        field = make_field(*fld_spec)
        full_rank = 0
        for trial in range(60):
            width = 1 if trial % 10 == 0 else rng.randint(2, 14)
            nrows = rng.randint(0, 2 * width + 2)
            rows = _random_sparse_rows(field, nrows, width, rng)
            if trial % 10 == 5:
                # a unit diagonal plus noise below it has full column rank
                rows += [{i: field.one, **{j: field.random_element(rng)
                                           for j in range(i + 1, width) if rng.random() < 0.3}}
                         for i in range(width)]
            before = [dict(r) for r in rows]
            want = densified_nullspace(field, rows, width)
            got = sparse_nullspace(field, rows, width)
            assert got == want, (fld_spec, width, rows)
            assert rows == before  # the input rows are not modified
            full_rank += not got
        assert full_rank >= 6, (fld_spec, full_rank)


def test_sparse_nullspace_edge_cases(F13):
    one, zero = F13.one, F13.zero
    ident = [tuple(one if i == j else zero for i in range(3)) for j in range(3)]
    assert sparse_nullspace(F13, [], 3) == ident
    assert sparse_nullspace(F13, [{}, {1: zero}], 3) == ident
    assert sparse_nullspace(F13, [{0: 5}], 1) == []
    # ints are coerced into the field; the free column carries the 1
    assert sparse_nullspace(F13, [{0: 2, 2: 4}], 3) == [
        (zero, one, zero), (F13.element(-2), zero, one)
    ]
    with pytest.raises(ValueError):
        sparse_nullspace(F13, [{0: make_field(3, 1).one}], 1)
