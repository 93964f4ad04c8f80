"""Quadratic spaces over F_q (q odd): Witt decomposition and type, spinor
norms, classical group orders, and placement of a similitude subgroup among
the four projective quotients.

witt_decompose reads the hyperbolic planes off one congruence diagonalization
and checks each split on the Gram; only _reflections enumerates vectors.
reflection_decomposition peels M along the same diagonal basis.

Conventions.  The Gram matrix stores the symmetric bilinear form B; the
quadratic form is Q(v) = B(v, v) / 2, so the hyperbolic plane [[0,1],[1,0]]
has Q(x, y) = xy.  The spinor norm of a product of reflections r_{v_i} is the
square class of the product of the Q(v_i).  spinor_norm computes it as the
discriminant of the Wall form on im(1 - M), one small determinant per
element; reflection_decomposition builds an explicit decomposition, with
no elimination on 1 - M, and is kept as the independent oracle.

The isometry layer is written once over the one element kind that
groups._matrix_kind holds for the field and dimension: canonical bytes, read
as integers mod p, over a prime field, Matrix elements over an extension
field.  It holds the isometry check and the Wall form of spinor_norm, the
reflections, and the characters that classify_subgroup reads off each
generator (similitude factor lambda, det / lambda^(n/2), and the spinor
class of g / sqrt(lambda)).  Entries are worked on in the kind's own
arithmetic; only the few scalars of an element (lambda, the determinant,
the Wall discriminant) are read as field elements.

classify_subgroup without the containment promise closes G = <gens> for its
order and counts G ∩ Omega as |H| / |chi(H)| from the generators:
H = G ∩ O(V) is the kernel of the similitude factor, generated by the
Schreier generators of a transversal of lambda(G) (Schreier's lemma), and
chi = (det, spinor norm) is a homomorphism on O(V) with kernel Omega (Wall
1963).  The order of Omega comes from the type, which is the square class
of the discriminant.  orthogonal_group grows one closure over the
reflections in canonical order.  Both close by groups._grow on the field's
kind, which already holds their elements.
"""

from __future__ import annotations

import enum
import functools
import itertools
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
    SingularGenerator,
    TooLarge,
)
from .ff import FieldDescriptor, is_square, sqrt
from .groups import GroupHandle, _grow, _matrix_kind
from .linalg import Matrix, _dot

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
    return _disc_class(gram.det(), gram.nrows)


def _disc_class(det, n: int) -> SquareClass:
    """Square class of (-1)^(n/2) det, for the determinant det of a Gram."""
    return square_class(-det if n // 2 % 2 else det)


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


def _reflection(kind, s, v):
    """r_v for the form with Gram s, as elements and vectors of kind: entry
    (i, j) is delta_ij - v_i * (s v)_j / Q(v); None for isotropic v."""
    sv = kind.apply(s, v)
    b = kind.dot(sv, v)  # B(v, v) = 2 Q(v)
    return kind.one_minus_outer(b.inverse() * 2, v, sv) if b else None


def reflection(V: QuadraticSpace, v) -> Matrix:
    """r_v(x) = x - B(x, v)/Q(v) * v, for anisotropic v."""
    kind = _matrix_kind(V.field, V.dim)
    r = _reflection(kind, kind.encode(V.gram), kind.encode_vector(v))
    if r is None:
        raise BadParams("reflection vector must be anisotropic")
    return kind.to_matrix(r)


def is_orthogonal(M: Matrix, V: QuadraticSpace) -> bool:
    return M.transpose() * V.gram * M == V.gram


def reflection_decomposition(M: Matrix, V: QuadraticSpace) -> list[tuple]:
    """Ambient vectors v_i with M equal to the ordered product of the r_{v_i}.

    Constructive Cartan-Dieudonne along the rows b of _diagonalize(V.gram),
    which are pairwise orthogonal and anisotropic.  W = r_{v_k} ... r_{v_1} M
    is what is left to peel.  A row with W b != b is peeled through
    d = W b - b when Q(d) != 0, and otherwise through W b + b followed by b,
    since Q(W b - b) + Q(W b + b) = 4 Q(b) != 0.  Either way W fixes b
    afterwards, and every peeled vector is orthogonal to the rows before b,
    which stay fixed; so W = I after the last row.
    """
    if not is_orthogonal(M, V):
        raise NotOrthogonal("matrix does not preserve the form")
    S, W = V.gram, M
    vectors: list[tuple] = []
    for b in _diagonalize(S):
        wb = W.apply(b)
        if wb == b:
            continue
        peel = [tuple(x - y for x, y in zip(wb, b))]
        if not _quad(S, peel[0]):
            peel = [tuple(x + y for x, y in zip(wb, b)), b]
        for v in peel:
            vectors.append(v)
            W = reflection(V, v) * W
        if W.apply(b) != b:
            raise InvariantViolation("peeling failed to fix the row")
    # verify the decomposition exactly
    prod = Matrix.identity(V.field, V.dim)
    for v in vectors:
        prod = prod * reflection(V, v)
    if prod != M:
        raise InvariantViolation("reflection decomposition does not multiply back")
    return vectors


def spinor_norm(M: Matrix, V: QuadraticSpace) -> SquareClass:
    """Square class of the discriminant of the Wall form of M.

    It equals the square class of the product of the Q(v_i) over any
    reflection decomposition M = r_{v_1} ... r_{v_s} (Zassenhaus 1962; Wall
    1963); reflection_decomposition stays as the independent oracle.  The
    isometry check and the Wall form run on the field's element kind.
    """
    kind = _matrix_kind(V.field, V.dim)
    m, s = kind.encode(M), kind.encode(V.gram)
    if m is None:  # M of another shape or field: raise as M^T S M does, or refuse
        is_orthogonal(M, V)
    if m is None or _transform(kind, s, m) != s:
        raise NotOrthogonal("matrix does not preserve the form")
    return _wall_spinor(kind, s, m)


def _transform(kind, s, m):
    """m^T s m."""
    return kind.mul(kind.mul(kind.transpose(m), s), m)


def _wall_spinor(kind, s, m) -> SquareClass:
    """Spinor class of an isometry m of the form with Gram s (elements of kind).

    With A = I - M, the Wall form on im(A) is chi(Au, Aw) = B(u, Aw).  The
    pivot columns c_1..c_r of A give a basis A e_{c_i} of im(A), on which its
    Gram matrix is W[i][j] = (S A)[c_i][c_j].  For a reflection r_v, A u is
    B(u, v)/Q(v) v, so W = [Q(v)].
    """
    a, cols = kind.one_minus(m)
    if not cols:
        return SquareClass.SQUARE
    return square_class(kind.det(kind.mul(s, a), cols))


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


def _enumerate_vectors(elems, zero, one, dim):
    """One nonzero vector per line, the one whose first nonzero coordinate is
    one, in the lexicographic order of elems, the field's elements."""
    for lead in reversed(range(dim)):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(elems, repeat=dim - 1 - lead):
            yield head + tail


def _reflections(V: QuadraticSpace) -> tuple:
    """(the field's kind, the reflections of V in canonical order as its
    elements); requires an enumerable vector set.  r_(cv) = r_v, and r_v is
    -1 on the line of v alone (q is odd), so one anisotropic vector per line
    gives each reflection exactly once."""
    fld, n = V.field, V.dim
    if fld.q**n > _ENUM_VECTOR_LIMIT:
        raise TooLarge("too many vectors to enumerate reflections")
    kind = _matrix_kind(fld, n)
    build = functools.partial(_reflection, kind, kind.encode(V.gram))
    elems, (zero, one) = kind.encode_vector(fld.elements()), kind.encode_vector((fld.zero, fld.one))
    refs = filter(None, map(build, _enumerate_vectors(elems, zero, one, n)))
    return kind, sorted(refs, key=kind.sort_key)


def all_reflections(V: QuadraticSpace) -> list[Matrix]:
    """The reflections of V in canonical order, those of _reflections made
    Matrix objects."""
    kind, refs = _reflections(V)
    return [kind.to_matrix(r) for r in refs]


def orthogonal_group(V: QuadraticSpace, cap: int) -> GroupHandle:
    """Full orthogonal group by closing over reflections; independent of the
    order formulas (every reflection is verified to land in the closure).

    One closure grows over the reflections of _reflections, in canonical
    order and on the field's kind, and a reflection becomes a generator when
    it is not yet in the group; raises CapExceeded exactly when
    |O(V)| > cap.  Like closure's, the handle sorts its elements canonically
    on their first read, so reading the order alone costs no sort.
    """
    kind, refs = _reflections(V)
    seen, gens = _grow(kind, refs, cap)
    return GroupHandle._make(kind, seen.values(), gens)


def subgroup_where(handle: GroupHandle, pred) -> GroupHandle:
    """Subgroup of the elements satisfying pred, with a greedy generating set."""
    kept = [x for x, m in zip(handle.items, handle.elements) if pred(m)]
    return GroupHandle._make(handle.kind, kept)


# ---------------------------------------------------------------------------
# Classification into the four projective quotients


def _check_generator(g: Matrix, V: QuadraticSpace) -> None:
    """Refuse a generator that is not n x n over V's field: BadParams for
    another field or row count, and NotSimilitude for another column count."""
    n = V.dim
    if g.field != V.field:
        raise BadParams(f"generator over {g.field} for a form over {V.field}")
    if g.nrows != n:
        raise BadParams(f"shape mismatch {g.ncols}x{g.nrows} @ {n}x{n}")
    if g.ncols != n:
        raise NotSimilitude("generator is not a similitude of the form")


def _similitude_factor(kind, s, m):
    """lambda with m^T s m = lambda s, for elements m and s of kind."""
    lhs = _transform(kind, s, m)
    i, j = next((i, j) for i in range(kind.n) for j in range(kind.n) if kind.entry(s, i, j))
    lam = kind.entry(lhs, i, j) / kind.entry(s, i, j)
    if not lam:
        raise NotSimilitude("could not extract a similitude factor")
    if lhs != kind.scale(s, lam):
        raise NotSimilitude("generator is not a similitude of the form")
    return lam


def _characters(kind, s, m):
    """(lambda, characters) of the similitude m of the form with Gram s, both
    elements of kind: the class of lambda, det(m) / lambda^(n/2), and for a
    square lambda the spinor class of the isometry m / sqrt(lambda), with the
    root that ff.sqrt picks.  The characters are a dict as
    SubgroupPlacement.char_images holds them."""
    one = kind.field.one
    lam = _similitude_factor(kind, s, m)
    det, half = kind.det(m), lam ** (kind.n // 2)
    if det != half and det != -half:  # det(m) / lambda^(n/2) is +1 or -1
        raise NotSimilitude("determinant is inconsistent with the similitude factor")
    square = is_square(lam)
    spin = None
    if square:
        if lam != one:  # ff.sqrt takes the root 1 of 1
            m = kind.scale(m, sqrt(lam).inverse())
        spin = _wall_spinor(kind, s, m).value
    return lam, {
        "similitude": "square" if square else "nonsquare",
        "det_part": "+1" if det == half else "-1",
        "spinor": spin,
    }


def _chi(images: dict) -> tuple[int, int]:
    """(det, spinor) bits of the characters of an isometry: 1 for
    determinant -1 and for a nonsquare spinor norm."""
    return int(images["det_part"] == "-1"), int(images["spinor"] == "nonsquare")


def _omega_order(kind, s, items: list, lams: list, chis: list, order: int) -> int:
    """|G ∩ Omega| for G = <items> of the given order, read off the
    generators, elements of kind for the form with Gram s, their similitude
    factors lams and the chi bits that _characters gave them.

    The similitude factor lambda: G -> F^* has kernel H = G ∩ O(S), so
    |H| = |G| / |lambda(G)|.  A breadth-first walk over the values
    lambda(gens) lists lambda(G) with a transversal rep, and by Schreier's
    lemma the r g rep(lambda(r g))^-1 generate H (Seress 2003, Lemma 4.2.1).
    chi = (det, spinor norm): O(S) -> {+-1}^2 is a homomorphism with kernel
    Omega (Wall 1963), so |G ∩ Omega| = |H| / |chi(H)|, and chi(H) is spanned
    by chi of the Schreier generators.  When every generator is an isometry
    the transversal is {I}, they are the generators and chis is read again
    for none of them; otherwise _characters reads each Schreier generator
    but the |lambda(G)| - 1 of the walk's tree edges, which are I.
    """
    one = kind.field.one
    reps = {one: kind.identity}
    if any(lam != one for lam in lams):
        values, tree = [one], set()
        for v in values:  # grows while it is walked
            for i, (g, lam) in enumerate(zip(items, lams)):
                w = v * lam
                if w not in reps:
                    reps[w] = kind.mul(reps[v], g)
                    values.append(w)
                    tree.add((v, i))
        inv = {v: kind.inverse(r) for v, r in reps.items()}
        # a tree edge built reps[v lam] as reps[v] g, so its Schreier
        # generator is I and adds nothing to chi(H)
        chis = [
            _chi(_characters(kind, s, kind.mul(kind.mul(reps[v], g), inv[v * lam]))[1])
            for v in values
            for i, (g, lam) in enumerate(zip(items, lams))
            if (v, i) not in tree
        ]
    index = len(reps) * len(_span_bits(chis, 2))
    if order % index:
        raise InvariantViolation(f"index {index} of G ∩ Omega does not divide |G| = {order}")
    return order // index


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
    Each generator's characters are read once, by _characters on the
    field's element kind.

    Without the promise, G = <gens> is closed up to _PROMISE_CAP elements for
    its order alone, and Omega <= G exactly when |G ∩ Omega| = |Omega|.
    _omega_order counts G ∩ Omega as |H| / |chi(H)|, H = G ∩ O(V), from
    Schreier generators of H (Schreier's lemma) and the homomorphism
    chi = (det, spinor norm) with kernel Omega (Wall 1963); no element of
    the closure is read, and generators that are isometries are not read
    again.  An empty generator list raises SingularGenerator, with the
    promise or without it.
    """
    if not gens:
        raise SingularGenerator("need at least one generator")
    fld, n = V.field, V.dim
    kind = _matrix_kind(fld, n)
    s = kind.encode(V.gram)
    minus = _characters(kind, s, kind.scale(kind.identity, fld.minus_one))[1]
    collapse = minus["spinor"] == "nonsquare"
    items, lams, triples = [], [], []
    for g in gens:
        _check_generator(g, V)
        items.append(kind.encode(g))
        lam, t = _characters(kind, s, items[-1])
        lams.append(lam)
        triples.append(t)
    chis = [_chi(t) for t in triples]
    lam_present = any(t["similitude"] == "nonsquare" for t in triples)
    width = 1 if collapse else 2
    evidence = [c[:width] for c, t in zip(chis, triples) if t["similitude"] == "square"]
    if lam_present:
        # products of two nonsquare-similitude generators land back in the
        # square-similitude part; harvest their characters as evidence
        nsq = [x for x, t in zip(items, triples) if t["similitude"] == "nonsquare"]
        for i in range(len(nsq)):
            for j in range(i, len(nsq)):
                t = _characters(kind, s, kind.mul(nsq[i], nsq[j]))[1]
                evidence.append(_chi(t)[:width])
    span = _span_bits(evidence, width)
    full = 1 << width

    omega_verified = bool(promise_contains_omega)
    if not promise_contains_omega:
        # the type is the discriminant's square class (see discriminant_class)
        disc = _disc_class(kind.det(s), n)
        eps = "+" if disc is SquareClass.SQUARE else "-"
        target = group_order(n, eps, fld.q, GroupFlavor.OMEGA)
        try:
            order = len(_grow(kind, items, _PROMISE_CAP)[0])
        except CapExceeded:
            raise PromiseUnverifiable(
                "group too large to enumerate and no containment promise given"
            ) from None
        omega_verified = _omega_order(kind, s, items, lams, chis, order) == target

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
