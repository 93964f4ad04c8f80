"""Quadratic spaces over F_q (q odd): Witt decomposition and type, spinor
norms, classical group orders, and placement of a similitude subgroup among
the four projective quotients.

witt_decompose reads the hyperbolic planes off one congruence diagonalization
and checks each split on the Gram; only all_reflections enumerates vectors.

Conventions.  The Gram matrix stores the symmetric bilinear form B; the
quadratic form is Q(v) = B(v, v) / 2, so the hyperbolic plane [[0,1],[1,0]]
has Q(x, y) = xy.  The spinor norm of a product of reflections r_{v_i} is the
square class of the product of the Q(v_i).  spinor_norm computes it as the
discriminant of the Wall form on im(1 - M), one small determinant per
element; reflection_decomposition builds an explicit decomposition and is
kept as the independent oracle.

classify_subgroup without the containment promise counts the elements of the
closed group in Omega.  Over a prime field the isometry test, the
determinant and the Wall form run on integer rows mod p, each elimination a
forward one mod p, and the square class is Euler's criterion; over an
extension field they run on Matrix elements.  orthogonal_group grows one
closure over the reflections in canonical order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import factorize
from .errors import (
    BadParams,
    CapExceeded,
    DegenerateForm,
    InvariantViolation,
    NotOrthogonal,
    NotSimilitude,
    OddCharacteristicRequired,
    PromiseUnverifiable,
    TooLarge,
)
from .ff import FieldDescriptor, is_square, sqrt
from .groups import GroupHandle, PrimeKind, _grow, _kind_for, _sorted, _subgroup, closure
from .linalg import Matrix, _row_reduce, _row_reduce_mod, nullspace

_ENUM_VECTOR_LIMIT = 1 << 20
_PROMISE_CAP = 10_000


class SquareClass(enum.Enum):
    SQUARE = "square"
    NONSQUARE = "nonsquare"

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self is other:
            return SquareClass.SQUARE
        return SquareClass.NONSQUARE


def square_class(x) -> SquareClass:
    return SquareClass.SQUARE if is_square(x) else SquareClass.NONSQUARE


class GroupFlavor(enum.Enum):
    OMEGA = "OMEGA"
    SO = "SO"
    O = "O"
    GO = "GO"


@dataclass(frozen=True)
class QuadraticSpace:
    field: FieldDescriptor
    gram: Matrix

    def __post_init__(self):
        if self.field.p == 2:
            raise OddCharacteristicRequired("quadratic spaces need odd q")
        g = self.gram
        if g.nrows != g.ncols:
            raise BadParams("Gram matrix must be square")
        if g.nrows % 2 != 0 or g.nrows == 0:
            raise BadParams(f"dimension must be even and positive, got {g.nrows}")
        if g.transpose() != g:
            raise BadParams("Gram matrix must be symmetric")
        if g.det().is_zero():
            raise DegenerateForm("Gram matrix is singular")

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def bilinear(self, u, v):
        return _dot(self.gram.apply(u), v, self.field)

    def quad(self, v):
        return _quad(self.gram, v)


@dataclass(frozen=True)
class TypeReport:
    witt_index: int
    epsilon: str  # "+" or "-"
    disc_class: str  # "square" or "nonsquare"


@dataclass(frozen=True)
class SubgroupPlacement:
    label: str  # P_OMEGA | PSO | PO | PGO | OTHER
    char_images: tuple  # per-generator {similitude, det_part, spinor}
    spinor_minus_trivial: bool
    omega_verified: bool


def _dot(u, v, fld):
    acc = fld.zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _quad(S: Matrix, v):
    """Q(v) = B(v, v) / 2 for the form with Gram matrix S."""
    fld = S.field
    return _dot(S.apply(v), v, fld) * fld.element(2).inverse()


def _to_ambient(fld, coeffs, basis):
    """The vector sum_i coeffs[i] * basis[i]."""
    out = [fld.zero] * len(basis[0])
    for c, b in zip(coeffs, basis):
        if c:
            out = [o + c * x for o, x in zip(out, b)]
    return tuple(out)


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Witt decomposition


def _diagonalize(S: Matrix) -> list[tuple]:
    """Rows b_i of a congruence U with U S U^T diagonal, by symmetric
    elimination on S.

    A zero pivot takes the first later b_j with B(b_j, b_j) != 0 in its
    place.  When there is none, b_i <- b_i + b_j for the first j with
    B(b_i, b_j) != 0 makes the pivot 2 B(b_i, b_j), nonzero as q is odd.
    Row operations leave the Gram of each pivot's complement below it.
    """
    fld, n = S.field, S.nrows
    g = [list(r) for r in S.rows]
    u = [list(r) for r in Matrix.identity(fld, n).rows]
    for i in range(n):
        if not g[i][i]:
            j = next((j for j in range(i + 1, n) if g[j][j]), None)
            if j is not None:
                u[i], u[j], g[i], g[j] = u[j], u[i], g[j], g[i]
                for r in g:
                    r[i], r[j] = r[j], r[i]
            else:
                j = next((j for j in range(i + 1, n) if g[i][j]), None)
                if j is None:
                    raise DegenerateForm("form vanishes on a complement; degenerate input")
                for m in (u, g):
                    m[i] = [a + b for a, b in zip(m[i], m[j])]
                for r in g:
                    r[i] = r[i] + r[j]
        dinv = g[i][i].inverse()
        for k in range(i + 1, n):
            f = g[k][i] * dinv
            if f:
                for m in (u, g):
                    m[k] = [a - f * b for a, b in zip(m[k], m[i])]
    return [tuple(r) for r in u]


def _ternary_zero(a, b, c):
    """(x, y) with a x^2 + b y^2 = -c and y != 0, which exist over F_q."""
    for x in a.field.elements():
        rhs = (-c - a * x * x) / b
        if rhs and is_square(rhs):
            return x, sqrt(rhs)
    raise InvariantViolation("ternary form over a finite field must be isotropic")


def discriminant_class(gram: Matrix) -> SquareClass:
    """Square class of (-1)^(n/2) det(gram), by Matrix.det.  A nondegenerate
    symmetric form of even dimension n has type "+" exactly when it is SQUARE."""
    disc = gram.det()
    return square_class(-disc if gram.nrows // 2 % 2 else disc)


def witt_decompose(V: QuadraticSpace) -> TypeReport:
    """Witt index and type from one congruence diagonalization (Lam, ch. I).

    The rows b_i of _diagonalize are pairwise orthogonal lines with
    a_i = Q(b_i).  A pair with -a_i/a_j a square splits the hyperbolic plane
    of the isotropic v = b_i + sqrt(-a_i/a_j) b_j.  Three lines a, b, c with
    no such pair split the plane of v = x b_1 + y b_2 + b_3, where
    a x^2 + b y^2 = -c, and leave its complement, the line
    z = b y b_1 - a x b_2 with Q(z) = -abc.  At most two lines are left over,
    spanning an anisotropic plane.  Each step is checked on the Gram: U S U^T
    is diagonal with nonzero entries, Q(v) = 0, B(v, z) = 0 and Q(z) = -abc,
    and the type agrees with the discriminant criterion.  A failure raises
    InvariantViolation.
    """
    S, fld, n = V.gram, V.field, V.dim
    rows = _diagonalize(S)
    U = Matrix(fld, rows)
    D = (U * S * U.transpose()).rows
    if any(bool(D[i][j]) != (i == j) for i in range(n) for j in range(n)):
        raise InvariantViolation("congruence diagonalization is not diagonal")
    half = fld.element(2).inverse()
    witt = 0
    left = []  # lines (b, Q(b)), no two with -Q(b)/Q(b') a square
    for b, a in zip(rows, (D[i][i] * half for i in range(n))):
        j = next((j for j, (_, c) in enumerate(left) if is_square(-a / c)), None)
        if j is None and len(left) < 2:
            left.append((b, a))
            continue
        if j is not None:
            b2, c = left.pop(j)
            v = _to_ambient(fld, (fld.one, sqrt(-a / c)), (b, b2))
        else:
            (b1, a1), (b2, a2) = left
            x, y = _ternary_zero(a1, a2, a)
            v = _to_ambient(fld, (x, y, fld.one), (b1, b2, b))
            z = _to_ambient(fld, (a2 * y, -a1 * x), (b1, b2))
            left = [(z, -a1 * a2 * a)]
            if _dot(S.apply(v), z, fld) or _quad(S, z) != -a1 * a2 * a:
                raise InvariantViolation("ternary step: z is not the line Q = -abc beside v")
        if _quad(S, v):
            raise InvariantViolation("split vector is not isotropic")
        witt += 1
    eps = "-" if left else "+"
    disc_cls = discriminant_class(S)
    expected = "+" if disc_cls is SquareClass.SQUARE else "-"
    if expected != eps:
        raise InvariantViolation(
            f"constructive type {eps} disagrees with discriminant criterion {expected}"
        )
    return TypeReport(witt_index=witt, epsilon=eps, disc_class=disc_cls.value)


# ---------------------------------------------------------------------------
# Reflections and the spinor norm


def _reflection(S: Matrix, v) -> Matrix:
    """r_v for the form with Gram matrix S: entry (i, j) is
    delta_ij - v_i * (S v)_j / Q(v), for anisotropic v."""
    fld = S.field
    qv = _quad(S, v)
    if qv.is_zero():
        raise BadParams("reflection vector must be anisotropic")
    qinv = qv.inverse()
    coef = [s * qinv for s in S.apply(v)]
    one, zero = fld.one, fld.zero
    m = S.nrows
    return Matrix(
        fld,
        [[(one if i == j else zero) - v[i] * coef[j] for j in range(m)] for i in range(m)],
    )


def reflection(V: QuadraticSpace, v) -> Matrix:
    """r_v(x) = x - B(x, v)/Q(v) * v, for anisotropic v."""
    return _reflection(V.gram, v)


def is_orthogonal(M: Matrix, V: QuadraticSpace) -> bool:
    return M.transpose() * V.gram * M == V.gram


def _anisotropic_candidates(m, fld):
    basis = [tuple(fld.one if i == j else fld.zero for i in range(m)) for j in range(m)]
    for b in basis:
        yield b
    for i in range(m):
        for j in range(i + 1, m):
            yield _vec_add(basis[i], basis[j])


def reflection_decomposition(M: Matrix, V: QuadraticSpace) -> list[tuple]:
    """Ambient vectors v_i with M equal to the ordered product of the r_{v_i}.

    Constructive Cartan-Dieudonne: fix an anisotropic x; peel with the
    reflection through Mx - x when that vector is anisotropic, otherwise
    through Mx + x followed by x (the two cannot both be isotropic); then
    restrict to the orthogonal complement of x and recurse.
    """
    if not is_orthogonal(M, V):
        raise NotOrthogonal("matrix does not preserve the form")
    fld = V.field
    n = V.dim
    basis = [tuple(fld.one if i == j else fld.zero for i in range(n)) for j in range(n)]
    W = M
    vectors: list[tuple] = []

    while basis:
        m = len(basis)
        if W.is_identity():
            break
        S = Matrix(fld, [[_dot(V.gram.apply(u), w, fld) for w in basis] for u in basis])
        x = next(
            (c for c in _anisotropic_candidates(m, fld) if _quad(S, c)),
            None,
        )
        if x is None:
            raise InvariantViolation("no anisotropic vector in a nondegenerate space")
        wx = W.apply(x)
        if wx == x:
            pass  # fall through to restriction
        else:
            d = _vec_sub(wx, x)
            if _quad(S, d):
                vectors.append(_to_ambient(fld, d, basis))
                W = _reflection(S, d) * W
            else:
                s = _vec_add(wx, x)
                if not _quad(S, s):
                    raise InvariantViolation("Mx-x and Mx+x cannot both be isotropic")
                vectors.append(_to_ambient(fld, s, basis))
                W = _reflection(S, s) * W
                vectors.append(_to_ambient(fld, x, basis))
                W = _reflection(S, x) * W
            if W.apply(x) != tuple(x):
                raise InvariantViolation("peeling failed to fix the chosen vector")
        # restrict W to the orthogonal complement of x inside the subspace
        rows = [tuple(S.apply(x))]
        comp = nullspace(Matrix(fld, rows))
        if len(comp) != m - 1:
            raise InvariantViolation("complement dimension mismatch")
        if not comp:
            break
        # express W on the new basis: solve N a = W c for each new vector c
        ncols = [tuple(c) for c in comp]
        images = [W.apply(c) for c in ncols]
        aug = [
            [ncols[j][i] for j in range(len(ncols))] + [img[i] for img in images]
            for i in range(m)
        ]
        red, pivots, _ = _row_reduce(fld, aug, len(ncols), reduced=True)
        if len(pivots) != len(ncols):
            raise InvariantViolation("complement basis is not independent")
        sol = {p: red[r][len(ncols):] for r, p in enumerate(pivots)}
        W = Matrix(fld, [sol[i] for i in range(len(ncols))])
        basis = [_to_ambient(fld, c, basis) for c in ncols]
    # verify the decomposition exactly
    prod = Matrix.identity(fld, n)
    for v in vectors:
        prod = prod * reflection(V, v)
    if prod != M:
        raise InvariantViolation("reflection decomposition does not multiply back")
    return vectors


def spinor_norm(M: Matrix, V: QuadraticSpace) -> SquareClass:
    """Square class of the discriminant of the Wall form of M.

    It equals the square class of the product of the Q(v_i) over any
    reflection decomposition M = r_{v_1} ... r_{v_s} (Zassenhaus 1962; Wall
    1963); reflection_decomposition stays as the independent oracle.
    """
    if not is_orthogonal(M, V):
        raise NotOrthogonal("matrix does not preserve the form")
    return _wall_spinor(M, V.gram)


def _wall_spinor(M: Matrix, S: Matrix) -> SquareClass:
    """Spinor class of an isometry M of the form with Gram matrix S.

    With A = I - M, the Wall form on im(A) is chi(Au, Aw) = B(u, Aw).  The
    pivot columns c_1..c_r of A give a basis A e_{c_i} of im(A), on which its
    Gram matrix is W[i][j] = (S A)[c_i][c_j].  For a reflection r_v, A u is
    B(u, v)/Q(v) v, so W = [Q(v)].
    """
    fld = S.field
    A = Matrix.identity(fld, M.nrows) - M
    cols = _row_reduce(fld, [list(r) for r in A.rows], A.ncols)[1]
    if not cols:
        return SquareClass.SQUARE
    SA = (S * A).rows
    wall = [[SA[i][j] for j in cols] for i in cols]
    return square_class(_row_reduce(fld, wall, len(cols))[2])


# ---------------------------------------------------------------------------
# Orders, standard spaces, enumeration


def group_order(n: int, epsilon, q: int, flavor) -> int:
    """Orders of O/SO/Omega/GO in even dimension n over F_q, q odd."""
    eps = _norm_eps(epsilon)
    flv = _norm_flavor(flavor)
    if n < 2 or n % 2 != 0:
        raise BadParams(f"dimension must be even and >= 2, got {n}")
    fac = factorize(q)
    if len(fac) != 1 or 2 in fac:
        raise BadParams(f"q must be an odd prime power, got {q}")
    m = n // 2
    o = 2 * q ** (m * (m - 1)) * (q**m - eps)
    for i in range(1, m):
        o *= q ** (2 * i) - 1
    if flv is GroupFlavor.O:
        return o
    if flv is GroupFlavor.SO:
        return o // 2
    if flv is GroupFlavor.OMEGA:
        return (q - eps) // 2 if n == 2 else o // 4
    return o * (q - 1)  # GO


def _norm_eps(epsilon) -> int:
    if epsilon in (1, -1):
        return epsilon
    if epsilon == "+":
        return 1
    if epsilon == "-":
        return -1
    raise BadParams(f"epsilon must be +/-, got {epsilon!r}")


def _norm_flavor(flavor) -> GroupFlavor:
    if isinstance(flavor, GroupFlavor):
        return flavor
    try:
        return GroupFlavor[str(flavor)]
    except KeyError:
        raise BadParams(f"unknown flavor {flavor!r}") from None


def standard_space(n: int, epsilon, q_field: FieldDescriptor) -> QuadraticSpace:
    """Reference space of the requested type: hyperbolic planes, plus one
    anisotropic binary block diag(1, -nonsquare) for minus type."""
    eps = _norm_eps(epsilon)
    fld = q_field
    m = n // 2
    zero, one = fld.zero, fld.one
    g = [[zero] * n for _ in range(n)]
    planes = m if eps == 1 else m - 1
    for i in range(planes):
        g[2 * i][2 * i + 1] = one
        g[2 * i + 1][2 * i] = one
    if eps == -1:
        nu = fld.nonsquare()
        g[n - 2][n - 2] = one
        g[n - 1][n - 1] = -nu
    V = QuadraticSpace(fld, Matrix(fld, g))
    report = witt_decompose(V)
    if report.epsilon != ("+" if eps == 1 else "-"):
        raise InvariantViolation("standard space has the wrong type")
    return V


def _enumerate_vectors(fld, dim):
    """All nonzero coordinate vectors in lexicographic element order."""
    total = fld.q**dim
    for idx in range(1, total):
        coords = []
        rem = idx
        for _ in range(dim):
            coords.append(rem % fld.q)
            rem //= fld.q
        yield tuple(fld.element_at(c) for c in reversed(coords))


def all_reflections(V: QuadraticSpace) -> list[Matrix]:
    """Distinct reflections of V; requires an enumerable vector set."""
    fld = V.field
    if fld.q**V.dim > _ENUM_VECTOR_LIMIT:
        raise TooLarge("too many vectors to enumerate reflections")
    seen = {}
    for v in _enumerate_vectors(fld, V.dim):
        if V.quad(v).is_zero():
            continue
        r = reflection(V, v)
        seen.setdefault(r.canonical_bytes(), r)
    return [seen[k] for k in sorted(seen)]


def orthogonal_group(V: QuadraticSpace, cap: int) -> GroupHandle:
    """Full orthogonal group by closing over reflections; independent of the
    order formulas (every reflection is verified to land in the closure).

    One closure grows over the reflections in canonical order, and a
    reflection becomes a generator when it is not yet in the group; raises
    CapExceeded exactly when |O(V)| > cap.
    """
    refs = all_reflections(V)
    kind = _kind_for(refs, cap)
    seen, gens = _grow(kind, [kind.encode(r) for r in refs], cap)
    return GroupHandle._make(kind, _sorted(kind, seen.values()), gens)


def subgroup_where(handle: GroupHandle, pred) -> GroupHandle:
    """Subgroup of the elements satisfying pred, with a greedy generating set."""
    return _subgroup(handle.kind, [x for x, m in zip(handle.items, handle.elements) if pred(m)])


def scalars_in(flavor, V: QuadraticSpace) -> list[Matrix]:
    """Scalar matrices inside the given classical group flavor."""
    flv = _norm_flavor(flavor)
    fld = V.field
    n = V.dim
    ident = Matrix.identity(fld, n)
    if flv is GroupFlavor.GO:
        if fld.q - 1 > _PROMISE_CAP:
            raise TooLarge("scalar group too large to list")
        out = []
        for x in fld.elements():
            if not x.is_zero():
                out.append(Matrix.scalar(fld, x, n))
        return out
    minus = Matrix.scalar(fld, -fld.one, n)
    if flv in (GroupFlavor.O, GroupFlavor.SO):
        return [ident, minus]
    # OMEGA: -I belongs iff its spinor norm is trivial
    if spinor_norm(minus, V) is SquareClass.SQUARE:
        return [ident, minus]
    return [ident]


# ---------------------------------------------------------------------------
# Classification into the four projective quotients


def _similitude_factor(g: Matrix, V: QuadraticSpace):
    lhs = g.transpose() * V.gram * g
    lam = None
    for i in range(V.dim):
        for j in range(V.dim):
            if V.gram.rows[i][j]:
                lam = lhs.rows[i][j] / V.gram.rows[i][j]
                break
        if lam is not None:
            break
    if lam is None or lam.is_zero():
        raise NotSimilitude("could not extract a similitude factor")
    if lhs != V.gram.scale(lam):
        raise NotSimilitude("generator is not a similitude of the form")
    return lam


def _char_triple(g: Matrix, V: QuadraticSpace):
    fld = V.field
    n = V.dim
    lam = _similitude_factor(g, V)
    det = g.det()
    det_part = det / lam ** (n // 2)
    if det_part != fld.one and det_part != -fld.one:
        raise NotSimilitude("determinant is inconsistent with the similitude factor")
    lam_cls = square_class(lam)
    spin = None
    if lam_cls is SquareClass.SQUARE:
        c = sqrt(lam)
        normalized = g.scale(c.inverse())
        spin = spinor_norm(normalized, V)
    return {
        "similitude": lam_cls.value,
        "det_part": "+1" if det_part == fld.one else "-1",
        "spinor": None if spin is None else spin.value,
    }


def _omega_count(grp: GroupHandle, S: Matrix) -> int:
    """Number of elements of grp in Omega of the form with Gram matrix S: the
    isometries of determinant 1 whose Wall form has a square discriminant.

    Over a prime field the three checks run on integer rows mod p, read from
    the handle's items when they are of the prime kind and encoded once
    otherwise; over an extension field they run on the dense elements.
    """
    fld = S.field
    if fld.k > 1:
        return sum(
            1
            for m in grp.elements
            if m.transpose() * S * m == S
            and m.det() == fld.one
            and _wall_spinor(m, S) is SquareClass.SQUARE
        )
    kind = grp.kind
    if isinstance(kind, PrimeKind):
        rows = grp.items
    else:
        kind, to_matrix = PrimeKind(fld, S.nrows), kind.to_matrix
        rows = [kind.encode(to_matrix(x)) for x in grp.items]
    s = kind.encode(S)
    return sum(1 for m in rows if _in_omega_mod_p(kind, m, s))


def _in_omega_mod_p(kind: PrimeKind, m, s) -> bool:
    """Whether the matrix with integer rows m is in Omega of the form with
    integer Gram rows s.  The Wall form is read as in _wall_spinor, and its
    discriminant d is a square exactly when d^((p-1)/2) = 1 mod p (Euler's
    criterion)."""
    p, n, mul = kind.p, kind.n, kind.mul
    if mul(tuple(zip(*m)), mul(s, m)) != s:
        return False
    if _row_reduce_mod(p, [list(row) for row in m], n)[1] != 1:
        return False
    a = [[(int(i == j) - x) % p for j, x in enumerate(row)] for i, row in enumerate(m)]
    cols = _row_reduce_mod(p, [row[:] for row in a], n)[0]
    if not cols:
        return True
    sa = mul(s, a)
    d = _row_reduce_mod(p, [[sa[i][j] for j in cols] for i in cols], len(cols))[1]
    return pow(d, (p - 1) // 2, p) == 1


def _span_bits(vectors: list[tuple[int, ...]], width: int) -> set[tuple[int, ...]]:
    span = {tuple([0] * width)}
    for v in vectors:
        new = {tuple((a + b) % 2 for a, b in zip(s, v)) for s in span}
        span |= new
    return span


def classify_subgroup(
    gens: list[Matrix], V: QuadraticSpace, promise_contains_omega: bool
) -> SubgroupPlacement:
    """Label the group generated by similitude generators, assuming (or
    verifying) that it contains the commutator subgroup Omega(V).

    The three characters (similitude class, normalized determinant, spinor
    norm of the normalized orthogonal part) cut out the four chains; when the
    spinor norm of -I is nontrivial the spinor coordinate is only defined
    modulo it, which is exactly when POmega = PSO projectively, and the label
    logic quotients accordingly.  Character-image patterns matching none of
    the four chains are reported as OTHER with the raw images attached.
    """
    fld = V.field
    minus = Matrix.scalar(fld, -fld.one, V.dim)
    sp_minus = spinor_norm(minus, V)
    collapse = sp_minus is SquareClass.NONSQUARE
    triples = [_char_triple(g, V) for g in gens]

    omega_verified = bool(promise_contains_omega)
    if not promise_contains_omega:
        try:
            grp = closure(list(gens), _PROMISE_CAP)
        except CapExceeded:
            raise PromiseUnverifiable(
                "group too large to enumerate and no containment promise given"
            ) from None
        report = witt_decompose(V)
        target = group_order(V.dim, report.epsilon, fld.q, GroupFlavor.OMEGA)
        omega_verified = _omega_count(grp, V.gram) == target

    def bit_det(t):
        return 1 if t["det_part"] == "-1" else 0

    def bit_spin(t):
        return 1 if t["spinor"] == "nonsquare" else 0

    lam_present = any(t["similitude"] == "nonsquare" for t in triples)
    width = 1 if collapse else 2

    def evid(t):
        return (bit_det(t),) if collapse else (bit_det(t), bit_spin(t))

    evidence = [evid(t) for t in triples if t["similitude"] == "square"]
    if lam_present:
        # products of two nonsquare-similitude generators land back in the
        # square-similitude part; harvest their characters as evidence
        nsq = [g for g, t in zip(gens, triples) if t["similitude"] == "nonsquare"]
        for i in range(len(nsq)):
            for j in range(i, len(nsq)):
                t = _char_triple(nsq[i] * nsq[j], V)
                evidence.append(evid(t))
    span = _span_bits(evidence, width)
    full = 1 << width

    label = "OTHER"
    if omega_verified and not lam_present:
        if len(span) == 1:
            label = "P_OMEGA"
        elif not collapse and span == {(0, 0), (0, 1)}:
            label = "PSO"
        elif len(span) == full:
            label = "PO"
    elif omega_verified and len(span) == full:
        label = "PGO"
    return SubgroupPlacement(
        label=label,
        char_images=tuple(triples),
        spinor_minus_trivial=not collapse,
        omega_verified=omega_verified,
    )
