"""Slow, explicit oracles that only the tests use.

norm_map computes the relative norm F_{p^n} -> F_{p^d} as x^((q-1)/(p^d-1))
and reads it back in subfield coordinates through an explicit embedding of
F_{p^d}: the least root of the subfield's modulus among the powers of a
generator of the order-(p^d - 1) subgroup, found by enumeration.  Criterion 8
and test_chars check the library's norm-kernel arithmetic against it.

invariant_forms_of and commutant_dim_of solve the invariant-form and
commutant systems of any list of generators as linear systems in n^2
unknowns, whose rows stay sparse dicts for sparse_nullspace.  test_induce
checks induce's shape reads against them, and they answer for the
non-self-dual matrices of untyped characters, which the library never builds.

all_reflections_all_vectors is the reflection list that
ortho.all_reflections built from every anisotropic vector, one reflection per
vector and deduplicated, where the library takes one vector per line.  Each
reflection is formed from its definition, r_v(e_j) = e_j - B(e_j, v)/Q(v) v,
in FieldElement arithmetic, where the library works on the field's element
kind (canonical bytes over a prime field).  test_ortho requires the two lists
to be byte-identical.

witt_decompose_recursive is the Witt decomposition that ortho.witt_decompose
replaced: it finds an isotropic vector, by enumerating all q^n vectors while
q^n <= 2^20 and on a diagonalization beyond, splits off its hyperbolic plane
and recurses on the complement.  test_ortho compares the whole TypeReport.

_omega_count is the Omega count that ortho._omega_order replaced: it tests
every element of an enumerated group for the isometry, determinant 1 and a
square Wall-form discriminant.  Over a prime field it does so on integer
rows mod p, decoded from the dense elements, with its own products and
elimination (_in_omega_mod_p), and over an extension field on Matrix
elements, through ortho._wall_spinor on the dense kind.  test_ortho
compares the two counts on every case.

euclid_inverse is the extended Euclidean algorithm on coefficient lists
that FieldElement.inverse replaced with the conjugate product over the norm;
test_ff compares the two on extension fields of every dtype.

trial_division is the prime-by-prime loop that arith._trial_division
replaced with gcds against blocks of primes; test_arith runs factorize on
either and compares.

is_prime_all_bases is Miller-Rabin to all twelve bases of
arith._MR_WITNESSES at every size, with the strong Lucas test from psi_12
on, where arith.is_prime stops at trial division below 59^2.  pair_flags recomputes the flags of
arith.PairCandidate with mult_order_mod, where the library tests
ord_t(p) = n through pow alone.  test_arith compares both pairs.

canonical_json is the standard library's encoder with the settings of the
certificate format, whose bytes certs.canonical_dump writes directly.
test_certs compares the two on certificates and drawn documents, and
test_cli on the pairs output.

_orbit is the breadth-first search that groups._conjugacy_class ran one
product at a time, where the library now forms a whole frontier's
conjugates through the kind's batched products.  test_groups requires the
class lists to be equal in order, and closes groups with it as a BFS
closure oracle.

ring_mul and ring_frobenius run the field kernel's _PolyRing.mul_arr and
frobenius_arr on coefficient tuples, for the tests that compare the kernel
with schoolbook arithmetic.

MonomialKind and monomial_closure are the third element kind that
groups.closure chose by itself for monomial generators, and its closure:
a monomial matrix whose entries lie in a cyclic group <h> is a pair
(perm, exps) of integer tuples, so a product is integer work.  The library
closes every generator list on groups._matrix_kind's kind; the tests close
the image groups <Phi, Sigma> of the sweep here, for the enumerating
lattice that image_analysis is checked against, and require the two
closures to agree element for element.

reduction_rows_by_lists is the recurrence on Python lists that built the
rows x^(k+j) mod f of a field's reduction matrix before ff._reduction_rows
built them on a block of moduli; test_ff requires the same _redux.
frobenius_matrix_by_powers is the chain of ring products that built a
ring's Frobenius matrix, x^(j p) mod f from x^p, before
_PolyRing.frobenius_matrix took ff._frobenius_block's; test_ff requires the
same matrix in the same dtype.

matrix_power raises a Matrix to a power by square-and-multiply on dense
products, which the library never forms; the tests hold the tame relations
Sigma^t = I and Phi^n = sign * I with it.
"""

import json
from functools import cache

import numpy as np

from tamerep.arith import _strong_lucas, factorize, mult_order_mod
from tamerep.errors import BadInput, DegenerateForm, InvariantViolation, ToolkitError, ZeroElement
from tamerep.ff import FieldDescriptor, FieldElement, find_generator, is_square, make_field, sqrt
from tamerep.groups import DenseKind, GroupHandle, _fits, _grow
from tamerep.induce import _monomial_shape
from tamerep.linalg import Matrix, _kernel_basis, _row_reduce, _row_reduce_mod, nullspace
from tamerep.ortho import (
    _ENUM_VECTOR_LIMIT,
    QuadraticSpace,
    SquareClass,
    TypeReport,
    _dot,
    _to_ambient,
    _wall_spinor,
    discriminant_class,
)


class NotADivisor(ToolkitError):
    pass


class EmbeddingFailure(ToolkitError):
    pass


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _solve_prime_linear(cols: list[list[int]], target: list[int], p: int):
    """Solve sum a_j * cols[j] = target over F_p; None when inconsistent."""
    rows = len(target)
    ncols = len(cols)
    aug = [[cols[j][i] % p for j in range(ncols)] + [target[i] % p] for i in range(rows)]
    piv = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, rows) if aug[i][c]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [v * inv % p for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                fct = aug[i][c]
                aug[i] = [(a - fct * b) % p for a, b in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols]:
            return None
    sol = [0] * ncols
    for i, c in enumerate(piv):
        sol[c] = aug[i][ncols]
    # free coordinates (none expected for embeddings) default to zero
    return sol


@cache
def embedding(f: FieldDescriptor, d: int):
    """(F_{p^d}, the chosen root, the basis of its image in f), cached."""
    sub = make_field(f.p, d)
    if d == 1:
        return sub, f.zero, [f.one]
    if f.p**d > 1 << 16:
        raise EmbeddingFailure(
            f"explicit embedding of F_{f.p}^{d} is capped at 2^16 elements"
        )
    g = find_generator(f)
    gamma = g ** ((f.q - 1) // (f.p**d - 1))
    roots = []
    cur = f.one
    for _ in range(f.p**d - 1):
        val = f.zero
        for c in reversed(sub.modulus):
            val = val * cur + f.element(c)
        if val.is_zero():
            roots.append(cur)
        cur = cur * gamma
    if not roots:
        raise EmbeddingFailure("subfield modulus has no root; inconsistent tower")
    root = min(roots, key=lambda e: e.lex_key())
    basis = [f.one]
    for _ in range(d - 1):
        basis.append(basis[-1] * root)
    return sub, root, basis


def norm_map(x: FieldElement, d: int) -> FieldElement:
    """Relative norm F_{p^n} -> F_{p^d}, returned in subfield coordinates."""
    f = x.field
    if d < 1 or f.k % d != 0:
        raise NotADivisor(f"{d} does not divide {f.k}")
    if d == f.k:
        return x
    sub, _root, basis = embedding(f, d)
    e = (f.q - 1) // (f.p**d - 1)
    y = x**e if not x.is_zero() else f.zero
    cols = [list(b.coeffs) for b in basis]
    sol = _solve_prime_linear(cols, list(y.coeffs), f.p)
    if sol is None:
        raise EmbeddingFailure(f"norm value {y!r} not in the embedded subfield")
    return sub.element(sol)


def euclid_inverse(x: FieldElement) -> FieldElement:
    """Oracle for FieldElement.inverse: the extended Euclidean algorithm on
    coefficient lists, against the modulus."""
    f = x.field
    if x.is_zero():
        raise ZeroElement("zero has no inverse")
    if f.k == 1:
        return FieldElement(f, (pow(x.coeffs[0], -1, f.p),))
    p = f.p
    r0, r1 = list(f.modulus), list(x.coeffs)
    s0, s1 = [0], [1]
    while any(r1):
        while r1 and r1[-1] == 0:
            r1.pop()
        d0, d1 = len(r0) - 1, len(r1) - 1
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        inv = pow(r1[-1], p - 2, p)
        q: list[int] = [0] * (d0 - d1 + 1)
        while len(r0) - 1 >= d1 and any(r0):
            while r0 and r0[-1] == 0:
                r0.pop()
            if not r0 or len(r0) - 1 < d1:
                break
            fq = r0[-1] * inv % p
            sh = len(r0) - 1 - d1
            q[sh] = fq
            for i in range(d1 + 1):
                r0[sh + i] = (r0[sh + i] - fq * r1[i]) % p
            while r0 and r0[-1] == 0:
                r0.pop()
        # s0 -= q * s1
        qs = [0] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs[i + j] += qi * sj
        ln = max(len(s0), len(qs))
        s0 = [((s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)) % p
              for i in range(ln)]
        r0, r1, s0, s1 = r1, r0, s1, s0
    # r0 is a nonzero constant gcd; s0 * x = r0
    while r0 and r0[-1] == 0:
        r0.pop()
    if len(r0) != 1 or r0[0] == 0:
        raise ZeroElement("element is not invertible")
    c = pow(r0[0], p - 2, p)
    out = [v * c % p for v in s0]
    out += [0] * (f.k - len(out))
    return FieldElement(f, tuple(out[: f.k]))


def sparse_nullspace(field: FieldDescriptor, rows, width: int) -> list[tuple[FieldElement, ...]]:
    """linalg.nullspace() of the width-column matrix whose rows are dicts
    column -> element, without densifying (sparse elimination,
    LaMacchia-Odlyzko 1990).

    Each row is reduced by the pivot rows so far, its least column becomes a
    new pivot, and that column is cleared from the older rows; the pivot rows
    are then the unique reduced echelon form.  Zero coefficients are dropped.
    """
    element, one = field.element, field.one
    rows = [{c: element(v) for c, v in coeff.items() if v} for coeff in rows]
    piv: dict[int, dict] = {}  # pivot column -> its row, 1 there and 0 at other pivots
    # the shortest rows first: single terms become pivots without an inverse
    for row in sorted(rows, key=len):
        for c in [c for c in row if c in piv]:
            _sub_multiple(row, row[c], piv[c])
        if not row:
            continue
        lead = min(row)
        if len(row) == 1:
            row[lead] = one
        elif row[lead] != one:
            inv = row[lead].inverse()
            row = {c: inv * v for c, v in row.items()}
        for prow in piv.values():
            f = prow.get(lead)
            if f is not None:
                _sub_multiple(prow, f, row)
        piv[lead] = row
    return _kernel_basis(field, width, piv)


def _sub_multiple(row: dict, f: FieldElement, prow: dict) -> None:
    """row -= f * prow on dict rows, dropping the entries that cancel."""
    for c, b in prow.items():
        v = row[c] - f * b if c in row else -(f * b)
        if v:
            row[c] = v
        else:
            del row[c]


def _invariance_rows(M: Matrix):
    """Rows of the linear system (M^T G M - G) = 0 over vec(G), sparse."""
    n = M.nrows
    fld = M.field
    cols = {}
    for a in range(n):
        for i in range(n):
            if M.rows[a][i]:
                cols.setdefault(i, []).append((a, M.rows[a][i]))
    rows = []
    for i in range(n):
        for j in range(n):
            coeff: dict[int, object] = {}
            for a, mai in cols.get(i, ()):
                for b, mbj in cols.get(j, ()):
                    idx = a * n + b
                    v = mai * mbj
                    coeff[idx] = coeff[idx] + v if idx in coeff else v
            idx = i * n + j
            coeff[idx] = coeff[idx] - fld.one if idx in coeff else -fld.one
            rows.append(coeff)
    return rows


def _commutation_rows(M: Matrix):
    """Rows of (X M - M X) = 0 over vec(X), sparse."""
    n = M.nrows
    rows = []
    for i in range(n):
        for j in range(n):
            coeff: dict[int, object] = {}
            for a in range(n):
                v = M.rows[a][j]
                if v:
                    idx = i * n + a
                    coeff[idx] = coeff[idx] + v if idx in coeff else v
                w = M.rows[i][a]
                if w:
                    idx = a * n + j
                    coeff[idx] = coeff[idx] - w if idx in coeff else -w
            rows.append(coeff)
    return rows


def invariant_forms_of(gens: list[Matrix]) -> list[Matrix]:
    fld = gens[0].field
    n = gens[0].nrows
    rows = []
    for M in gens:
        rows.extend(_invariance_rows(M))
    basis = sparse_nullspace(fld, rows, n * n)
    out = []
    for vec in basis:
        first = next(v for v in vec if v)
        inv = first.inverse()
        scaled = [inv * v if v else v for v in vec]
        out.append(Matrix(fld, [scaled[i * n : (i + 1) * n] for i in range(n)]))
    return out


def commutant_dim_of(gens: list[Matrix]) -> int:
    fld = gens[0].field
    n = gens[0].nrows
    rows = []
    for M in gens:
        rows.extend(_commutation_rows(M))
    return len(sparse_nullspace(fld, rows, n * n))


def trial_division(m: int) -> tuple[dict[int, int], int]:
    """Oracle for arith._trial_division: the primes up to 53, then every odd
    number from 59 while its square stays at most the cofactor and it is
    below 100,000.  Returns (the factors found, the cofactor)."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    p = 59
    while p * p <= m and p < 100000:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 2
    return out, m


def is_prime_all_bases(m: int) -> bool:
    """Oracle for arith.is_prime: trial division by the primes up to 53, then
    Miller-Rabin to all twelve bases, which is exact below psi_12, and the
    strong Lucas test from psi_12 on."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        if m == p:
            return True
        if m % p == 0:
            return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if not all(strong_probable_prime(m, a) for a in bases):
        return False
    return m < 318665857834031151167461 or _strong_lucas(m)


def strong_probable_prime(m: int, a: int) -> bool:
    """The Miller-Rabin test of the odd m > 2 to the base a."""
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(r - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def pair_flags(n: int, p: int, t: int, ell: int | None) -> dict[str, bool]:
    """Oracle for PairCandidate.flags: the same flags in the same order,
    with ord_t(p) computed by mult_order_mod and compared with n."""
    flags = {
        "t_prime": is_prime_all_bases(t),
        "p_prime": is_prime_all_bases(p),
        "t_cong_1_mod_n": t % n == 1,
        "p_gt_n": p > n,
    }
    if flags["t_prime"] and flags["p_prime"] and p % t != 0:
        flags["ord_p_mod_t_is_n"] = mult_order_mod(p, t) == n
    else:
        flags["ord_p_mod_t_is_n"] = False
    flags["no_subfield_leak"] = all((p ** (n // q) - 1) % t != 0 for q in factorize(n))
    if ell is not None:
        flags["p_gt_ell"] = p > ell
        flags["t_gt_ell"] = t > ell
    return flags


def _diagonalize(V: "QuadraticSpace"):
    """Congruence transform U with U^T G U diagonal; deterministic pivoting.

    Returns (U columns as vectors, diagonal entries).
    """
    fld = V.field
    n = V.dim
    basis = [
        tuple(fld.one if i == j else fld.zero for i in range(n)) for j in range(n)
    ]
    cols = []
    diag = []
    remaining = list(basis)
    while remaining:
        # pick a vector with Q != 0 among remaining basis or pairwise sums
        pick = None
        for v in remaining:
            if V.quad(v):
                pick = v
                break
        if pick is None:
            for i in range(len(remaining)):
                for j in range(i + 1, len(remaining)):
                    cand = _vec_add(remaining[i], remaining[j])
                    if V.quad(cand):
                        pick = cand
                        break
                if pick is not None:
                    break
        if pick is None:
            raise DegenerateForm("form vanishes on a complement; degenerate input")
        qv = V.quad(pick)
        cols.append(pick)
        diag.append(qv)
        gv = V.gram.apply(pick)
        denom = V.bilinear(pick, pick)  # = 2 Q(pick), nonzero
        dinv = denom.inverse()
        new_rem = []
        for w in remaining:
            coef = _dot(gv, w, fld) * dinv
            w2 = _vec_sub(w, tuple(coef * c for c in pick))
            if any(w2):
                new_rem.append(w2)
        # keep an independent subset of the projected vectors
        if new_rem:
            red, pivots, _ = _row_reduce(fld, [list(r) for r in new_rem], n, reduced=True)
            new_rem = [tuple(red[r]) for r in range(len(pivots))]
        remaining = new_rem
        if len(cols) == n:
            break
    if len(cols) != n:
        raise DegenerateForm("diagonalization lost rank")
    return cols, diag


def enumerate_all_vectors(fld, dim):
    """All nonzero coordinate vectors in lexicographic element order."""
    total = fld.q**dim
    for idx in range(1, total):
        coords = []
        rem = idx
        for _ in range(dim):
            coords.append(rem % fld.q)
            rem //= fld.q
        yield tuple(fld.element_at(c) for c in reversed(coords))


def _reflection_by_definition(V: QuadraticSpace, v) -> Matrix:
    """r_v column by column: r_v(e_j) = e_j - B(e_j, v)/Q(v) v."""
    fld, n = V.field, V.dim
    qinv = V.quad(v).inverse()
    basis = [tuple(fld.one if i == j else fld.zero for i in range(n)) for j in range(n)]
    cols = [tuple(x - V.bilinear(e, v) * qinv * y for x, y in zip(e, v)) for e in basis]
    return Matrix(fld, list(zip(*cols)))


def all_reflections_all_vectors(V: QuadraticSpace) -> list[Matrix]:
    """Oracle for ortho.all_reflections: a reflection for every anisotropic
    vector, deduplicated by canonical bytes, in canonical order."""
    seen = {}
    for v in enumerate_all_vectors(V.field, V.dim):
        if V.quad(v).is_zero():
            continue
        r = _reflection_by_definition(V, v)
        seen.setdefault(r.canonical_bytes(), r)
    return [seen[k] for k in sorted(seen)]


def _find_isotropic(V: "QuadraticSpace"):
    """First isotropic vector in the deterministic search order, or None."""
    fld = V.field
    n = V.dim
    if fld.q**n <= _ENUM_VECTOR_LIMIT:
        for v in enumerate_all_vectors(fld, n):
            if V.quad(v).is_zero():
                return v
        return None
    cols, diag = _diagonalize(V)

    # two-variable test on each pair of diagonal entries first
    for i in range(n):
        for j in range(i + 1, n):
            ratio = -diag[i] / diag[j]
            if is_square(ratio):
                r = sqrt(ratio)
                coeffs = [fld.zero] * n
                coeffs[i] = fld.one
                coeffs[j] = r
                return _to_ambient(fld, coeffs, cols)
    if n < 3:
        return None
    # a, b, c from the first three diagonal entries: solve a x^2 + b y^2 = -c
    a, b, c = diag[0], diag[1], diag[2]
    x = fld.zero
    for xv in fld.elements():
        rhs = (-c - a * xv * xv) / b
        if rhs.is_zero():
            continue
        if is_square(rhs):
            y = sqrt(rhs)
            coeffs = [fld.zero] * n
            coeffs[0] = xv
            coeffs[1] = y
            coeffs[2] = fld.one
            return _to_ambient(fld, coeffs, cols)
    raise InvariantViolation("ternary form over a finite field must be isotropic")


def _complement_basis(V: "QuadraticSpace", vectors):
    """Basis of the orthogonal complement of the span of the given vectors."""
    fld = V.field
    rows = [tuple(V.gram.apply(v)) for v in vectors]
    return nullspace(Matrix(fld, rows))


def _restrict(V: "QuadraticSpace", basis):
    fld = V.field
    g = [[V.bilinear(u, w) for w in basis] for u in basis]
    return QuadraticSpace(fld, Matrix(fld, g))


def witt_decompose_recursive(V: QuadraticSpace) -> TypeReport:
    """Oracle for ortho.witt_decompose: split hyperbolic planes until
    anisotropic; cross-check the sign of the discriminant and fail loudly on
    mismatch."""
    fld = V.field
    n = V.dim
    witt = 0
    current = V
    ambient_dim = n
    while current.dim >= 2:
        v = _find_isotropic(current)
        if v is None:
            break
        # hyperbolic partner: u with B(v, u) = 1, Q(u) = 0
        gv = current.gram.apply(v)
        pivot = next((i for i, e in enumerate(gv) if e), None)
        if pivot is None:
            raise DegenerateForm("isotropic vector is in the radical")
        u0 = tuple(
            current.field.one if i == pivot else current.field.zero
            for i in range(current.dim)
        )
        binv = _dot(gv, u0, fld).inverse()
        u1 = tuple(binv * e for e in u0)
        qu = current.quad(u1)
        u2 = _vec_sub(u1, tuple(qu * e for e in v))
        witt += 1
        comp = _complement_basis(current, [v, u2])
        if len(comp) != current.dim - 2:
            raise InvariantViolation("hyperbolic complement has wrong dimension")
        if not comp:
            current = None
            break
        current = _restrict(current, comp)
    m = n // 2
    if witt == m:
        eps = "+"
    elif witt == m - 1:
        eps = "-"
    else:
        raise InvariantViolation(f"witt index {witt} impossible for dimension {n}")
    disc_cls = discriminant_class(V.gram)
    expected = "+" if disc_cls is SquareClass.SQUARE else "-"
    if expected != eps:
        raise InvariantViolation(
            f"constructive type {eps} disagrees with discriminant criterion {expected}"
        )
    return TypeReport(
        witt_index=witt,
        epsilon=eps,
        disc_class=disc_cls.value,
    )


def _omega_count(grp: GroupHandle, S: Matrix) -> int:
    """Number of elements of grp in Omega of the form with Gram matrix S: the
    isometries of determinant 1 whose Wall form has a square discriminant.

    Over a prime field the three checks run on integer rows mod p, decoded
    from each element's dense matrix; over an extension field they run on the
    dense elements.
    """
    fld = S.field
    if fld.k > 1:
        dense = DenseKind(fld, S.nrows)
        return sum(
            1
            for m in grp.elements
            if m.transpose() * S * m == S
            and m.det() == fld.one
            and _wall_spinor(dense, S, m) is SquareClass.SQUARE
        )
    s, to_matrix = int_rows(S), grp.kind.to_matrix
    return sum(1 for x in grp.items if _in_omega_mod_p(fld.p, int_rows(to_matrix(x)), s))


def int_rows(M: Matrix) -> list[list[int]]:
    """The entries of M, a matrix over a prime field, as integer rows."""
    return [[e.coeffs[0] for e in row] for row in M.rows]


def _matmul_mod(p: int, a, b) -> list[list[int]]:
    """a*b mod p for integer rows a and b."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _in_omega_mod_p(p: int, m, s) -> bool:
    """Whether the matrix with integer rows m is in Omega of the form with
    integer Gram rows s, mod p.  The Wall form is read as in _wall_spinor,
    and its discriminant d is a square exactly when d^((p-1)/2) = 1 mod p
    (Euler's criterion)."""
    n = len(m)
    if _matmul_mod(p, list(zip(*m)), _matmul_mod(p, s, m)) != s:
        return False
    if _row_reduce_mod(p, [list(row) for row in m], n)[1] != 1:
        return False
    a = [[(int(i == j) - x) % p for j, x in enumerate(row)] for i, row in enumerate(m)]
    cols = _row_reduce_mod(p, [row[:] for row in a], n)[0]
    if not cols:
        return True
    sa = _matmul_mod(p, s, a)
    d = _row_reduce_mod(p, [[sa[i][j] for j in cols] for i in cols], len(cols))[1]
    return pow(d, (p - 1) // 2, p) == 1


def canonical_json(doc) -> str:
    """The canonical text of a JSON document: sorted keys, two-space indent,
    one final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _orbit(kind, seen: dict, frontier: list, gens, step) -> dict:
    """Grow seen (key -> element) breadth-first from frontier by x -> step(x, g)."""
    key = kind.key
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = step(x, g)
                k = key(y)
                if k not in seen:
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return seen


def ring_mul(ring, a: tuple, b: tuple) -> tuple:
    """a * b in the _PolyRing ring, on coefficient tuples."""
    return tuple(ring.mul_arr(np.array(a, ring.dtype), np.array(b, ring.dtype)).tolist())


def ring_frobenius(ring, a: tuple) -> tuple:
    """a^p in the _PolyRing ring, on a coefficient tuple."""
    return tuple(ring.frobenius_arr(np.array(a, ring.dtype)).tolist())


def frobenius_matrix_by_powers(ring):
    """The Frobenius matrix of the _PolyRing ring in its dtype, column j the
    coordinates of x^(j p) mod f: x^p by square-and-multiply, then each
    column the one before times x^p."""
    xp = ring.pow_arr(np.array((0, 1) + (0,) * (ring.k - 2), dtype=ring.dtype), ring.p)
    cols = [ring.one_arr()]
    for _ in range(ring.k - 1):
        cols.append(ring.mul_arr(cols[-1], xp))
    return np.array(cols, dtype=ring.dtype).T


def matrix_power(M: Matrix, e: int) -> Matrix:
    """M^e for a square M by square-and-multiply on dense products; a
    negative e powers M's inverse."""
    if M.nrows != M.ncols:
        raise ValueError("power of a non-square matrix")
    if e < 0:
        return matrix_power(M.inverse(), -e)
    result = Matrix.identity(M.field, M.nrows)
    base = M
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def reduction_rows_by_lists(p: int, mod: tuple) -> list:
    """The rows x^(k+j) mod f, j < k - 1, of the monic f = mod of degree
    k >= 2, on Python lists: x^k = -f's low coefficients, each row after
    shifted by one and reduced by its top coefficient."""
    k = len(mod) - 1
    top = [(-c) % p for c in mod[:k]]
    rows = [top]
    for _ in range(k - 2):
        prev = rows[-1]
        row = [0] + prev[:-1]
        lead = prev[-1]
        if lead:
            row = [(a + lead * b) % p for a, b in zip(row, top)]
        rows.append(row)
    return rows


class MonomialKind:
    """Monomial n x n matrices with entries in a cyclic group <h> of order m.

    An element is (perm, exps): row i holds h^exps[i] in column perm[i].
    Canonical bytes are row-major, so a row whose entry sits further left
    sorts later, and rows with the entry in one column sort by the entry's
    bytes; (-perm[i], rank of exps[i]) row by row therefore orders elements
    exactly as their canonical bytes do, without building them.
    """

    stack = staticmethod(list)

    def __init__(self, field, n: int, powers: list):
        self.field = field
        self.n = n
        self.m = len(powers)
        self.powers = powers  # powers[e] = h^e
        self._dlog = {v.coeffs: e for e, v in enumerate(powers)}
        self._entry_bytes = [v.to_bytes() for v in powers]
        self._zero_bytes = field.zero.to_bytes()
        self._rank = [0] * self.m
        for r, e in enumerate(sorted(range(self.m), key=self._entry_bytes.__getitem__)):
            self._rank[e] = r
        self.identity = (tuple(range(n)), (0,) * n)

    @classmethod
    def spanned_by(cls, gens: list[Matrix], limit: int) -> "MonomialKind | None":
        """The kind of the monomial generators, or None when one of them is not
        monomial or their entries span a cyclic group of order above limit."""
        shapes = []
        for g in gens:
            shape = _monomial_shape(g)
            if shape is None:
                return None
            shapes.append(shape)
        values = {v.coeffs: v for _perm, vals in shapes for v in vals}
        powers = _cyclic_span(gens[0].field, [values[c] for c in sorted(values)], limit)
        return None if powers is None else cls(gens[0].field, gens[0].nrows, powers)

    def mul(self, a, b):
        pa, ea = a
        pb, eb = b
        m = self.m
        return tuple([pb[i] for i in pa]), tuple([(x + eb[i]) % m for x, i in zip(ea, pa)])

    def coset(self, sub: list, r) -> list:
        """The products h*r for h in sub, in order."""
        mul = self.mul
        return [mul(h, r) for h in sub]

    def products(self, r, gens: list) -> list:
        """The products r*g for g in gens, in order."""
        mul = self.mul
        return [mul(r, g) for g in gens]

    def inverse(self, a):
        perm = [0] * self.n
        exps = [0] * self.n
        for i, (j, x) in enumerate(zip(*a)):
            perm[j] = i
            exps[j] = -x % self.m
        return tuple(perm), tuple(exps)

    @staticmethod
    def key(a):
        return a

    def sort_key(self, a):
        rank = self._rank
        return tuple((-c, rank[e]) for c, e in zip(*a))

    def to_bytes(self, a) -> bytes:
        zero, entry, n = self._zero_bytes, self._entry_bytes, self.n
        return b"".join(zero * c + entry[e] + zero * (n - 1 - c) for c, e in zip(*a))

    def to_matrix(self, a) -> Matrix:
        zero = self.field.zero
        rows = [[zero] * self.n for _ in range(self.n)]
        for row, c, e in zip(rows, *a):
            row[c] = self.powers[e]
        return Matrix(self.field, rows)

    def encode(self, M: Matrix):
        """(perm, exps) of M, or None when M is not an element of this kind."""
        if not _fits(self, M):
            return None
        shape = _monomial_shape(M)
        if shape is None:
            return None
        exps = tuple(self._dlog.get(v.coeffs) for v in shape[1])
        return None if None in exps else (shape[0], exps)


def _cyclic_span(field, values, limit: int):
    """[h^0, ..., h^(m-1)] for a generator h of the cyclic subgroup of F_q^*
    that values span, or None when its order m exceeds limit.

    For the least j with x^j in <h>, <h, x> has order m*j and is generated
    by g^((q-1)/(m*j)), g the field's cached generator.
    """
    one = field.one
    powers = [one]
    index = {one.coeffs}
    for x in values:
        j, cur = 1, x
        while cur.coeffs not in index:
            j += 1
            if len(powers) * j > limit:
                return None
            cur = cur * x
        if j > 1:
            m = len(powers) * j
            h = find_generator(field) ** ((field.q - 1) // m)
            powers = [one]
            for _ in range(m - 1):
                powers.append(powers[-1] * h)
            index = {v.coeffs for v in powers}
    return powers


def monomial_closure(gens: list[Matrix], cap: int) -> GroupHandle:
    """groups.closure of monomial generators on MonomialKind, as closure ran
    it when it chose the kind itself: the same coset enumeration, handle and
    CapExceeded past cap.  Raises BadInput when a generator is not monomial,
    or their entries span a cyclic group of order above cap."""
    kind = MonomialKind.spanned_by(gens, cap)
    if kind is None:
        raise BadInput("generators are not monomial over a cyclic group within cap")
    items = [kind.encode(g) for g in gens]
    return GroupHandle._make(kind, _grow(kind, items, cap)[0].values(), items)
