"""Finite matrix-group engine for small orders: closure by coset enumeration,
normal subgroups, the intersection filter over bounded-index normals, and
metacyclic structure detection.

Everything here enumerates honestly, up to NORMAL_SUBGROUP_CAP elements for
the lattice and the metacyclic scan, so no stabilizer-chain machinery is
needed.  It is public API and the oracle of induce.image_analysis, which
certificates and the sweep use instead; ortho.orthogonal_group and the
classifier close their groups here.  Element lists are read in the order
of a canonical byte encoding, which makes handles deterministic and
comparable; a handle sorts its enumeration on the first such read, so
callers that read only the order, membership or the byte set never sort.
closure, ortho.orthogonal_group, the subgroup joins and the generating
subsets all close through one routine, _grow: Dimino's coset enumeration,
about one product per element, formed a whole coset at a time.  Conjugacy
classes grow through the same batched products, a frontier at a time, and
membership is one test: the kind encodes the matrix, or refuses one of
another field or shape, and its key is looked up.

The algorithms run on one small element protocol, an element *kind* with
``identity``, ``mul``, ``inverse``, a hashable ``key``, the canonical
``sort_key``, and ``stack`` with ``coset`` and ``products`` for the right
coset H*r of a fixed list H and the products r*g with a fixed list of
generators.  Both kinds, the kinds of matrices over a field, also have
``det`` (of a matrix or of a principal minor), for the singularity check
of closure, and the few operations on which ortho writes its isometry
layer once: ``transpose``, ``scale`` by a field scalar, ``one_minus``
(I - M with its pivot columns), ``entry``, and on vectors ``apply``,
``dot``, ``one_minus_outer`` (I - c u w^T) and ``encode_vector``.  Scalars
they return are field elements.  There are two kinds:

- PrimeKind: a matrix over a prime field F_p is its canonical bytes, the
  entries row by row in the field's byte width, so it is its own key, sort
  key and bytes.  A product is integer dot products on the entries read
  off the bytes, and a coset, or the products of one representative with
  every generator, is one numpy product with the stacked list, sliced from
  one buffer.  The orthogonal groups of ortho are of this kind.
- DenseKind: a Matrix, keyed by its canonical bytes, over an extension
  field.

_matrix_kind is the one place that chooses between them: the prime kind
over a prime field, the dense kind over an extension field, made once per
field and shape.  closure, the public handle and ortho all take its kind,
whatever the shape of the generators; the image groups <Phi, Sigma>, which
are monomial, are closed on it too.  A prime handle builds dense matrices
only when its ``elements`` are asked for.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain

from .arith import mult_order_mod
from .errors import (
    BadInput,
    CapExceeded,
    InvariantViolation,
    SingularGenerator,
    SingularMatrix,
    TooLarge,
)
from .ff import _matmul_mod_p, _stack_mod_p
from .linalg import Matrix, _dot, _row_reduce, _row_reduce_mod

NORMAL_SUBGROUP_CAP = 10_000


class DenseKind:
    """Dense matrices, keyed and ordered by their canonical bytes.  A coset,
    and the products of a representative with the generators, are formed
    one product at a time."""

    stack = staticmethod(list)

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.identity = Matrix.identity(field, n)

    def coset(self, sub: list, r) -> list:
        """The products h*r for h in sub, in order."""
        mul = self.mul
        return [mul(h, r) for h in sub]

    def products(self, r, gens: list) -> list:
        """The products r*g for g in gens, in order."""
        mul = self.mul
        return [mul(r, g) for g in gens]

    @staticmethod
    def mul(a: Matrix, b: Matrix) -> Matrix:
        return a * b

    @staticmethod
    def inverse(a: Matrix) -> Matrix:
        return a.inverse()

    transpose = staticmethod(Matrix.transpose)
    scale = staticmethod(Matrix.scale)
    apply = staticmethod(Matrix.apply)

    def det(self, a: Matrix, cols=None):
        r = a.rows
        rows = [list(x) for x in r] if cols is None else [[r[i][j] for j in cols] for i in cols]
        return _row_reduce(self.field, rows, len(rows))[2]

    def one_minus(self, a: Matrix):
        d = self.identity - a
        return d, _row_reduce(self.field, [list(r) for r in d.rows], self.n)[1]

    def one_minus_outer(self, c, u, w) -> Matrix:
        cw = [c * x for x in w]
        return self.identity - Matrix._trusted(self.field, [[a * b for b in cw] for a in u])

    @staticmethod
    def entry(a: Matrix, i: int, j: int):
        return a.rows[i][j]

    def dot(self, u, v):
        return _dot(u, v, self.field)

    def encode_vector(self, v) -> tuple:
        return tuple(map(self.field.element, v))

    @staticmethod
    def key(a: Matrix) -> bytes:
        return a.canonical_bytes()

    sort_key = to_bytes = key

    @staticmethod
    def to_matrix(a: Matrix) -> Matrix:
        return a

    def encode(self, M: Matrix):
        """M, or None when M is not an element of this kind."""
        return M if _fits(self, M) else None


class PrimeKind:
    """Matrices over a prime field F_p as their canonical bytes: the entries
    row by row, each in the field's little-endian byte width, exactly
    Matrix.canonical_bytes.  An element is therefore its own key, sort key
    and bytes.  A coset H*r, or the products r*g with the generators, is one
    array product with the stacked list, sliced from one buffer
    (ff._matmul_mod_p), exact at any p.  The other operations read the
    entries as integers row by row: at width 1 the bytes already are them,
    so a row is a[i*n:(i+1)*n] and a column a[j::n].
    """

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.p = field.p
        self._element = functools.lru_cache(maxsize=4096)(field.element)
        self._rows, self._cols, self._transposed = _layout(n)
        w = field._byte_width
        if w == 1:
            # bytes reads a byte string as itself and packs integers below 256
            self._ints = self._pack = bytes
        else:
            self._ints = lambda a: [
                int.from_bytes(a[k : k + w], "little") for k in range(0, len(a), w)
            ]
            self._pack = lambda xs: b"".join([x.to_bytes(w, "little") for x in xs])
        self.identity = self._pack([int(k % (n + 1) == 0) for k in range(n * n)])

    def mul(self, a, b):
        p, mul = self.p, operator.mul
        rows, cols = self._rows(self._ints(a)), self._cols(self._ints(b))
        return self._pack([sum(map(mul, row, col)) % p for row in rows for col in cols])

    def stack(self, elems):
        """The elements as one array, for coset and products."""
        return _stack_mod_p(elems, self.field, self.n)

    def coset(self, sub, r) -> list:
        """The products h*r for the matrices h of sub, in order."""
        return _matmul_mod_p(sub, r, self.field)

    def products(self, r, gens) -> list:
        """The products r*g for the matrices g of gens, in order."""
        return _matmul_mod_p(r, gens, self.field)

    def transpose(self, a):
        return self._pack(self._transposed(self._ints(a)))

    def scale(self, a, c):
        p, c = self.p, c.coeffs[0]
        return self._pack([x * c % p for x in self._ints(a)])

    def apply(self, a, v) -> tuple:
        p, mul = self.p, operator.mul
        return tuple([sum(map(mul, row, v)) % p for row in self._rows(self._ints(a))])

    def det(self, a, cols=None):
        """The determinant of a, or of its principal minor on the columns cols."""
        v, n = self._ints(a), self.n
        rows = list(self._rows(v)) if cols is None else [[v[i * n + j] for j in cols] for i in cols]
        return self._element(_row_reduce_mod(self.p, rows, len(rows))[1])

    def one_minus(self, a):
        """(I - a, the pivot columns of I - a): its columns there span im(I - a)."""
        p, n = self.p, self.n
        d = [-x % p for x in self._ints(a)]
        for i in range(0, n * n, n + 1):
            d[i] = (d[i] + 1) % p
        return self._pack(d), _row_reduce_mod(p, list(self._rows(d)), n)[0]

    def one_minus_outer(self, c, u, w):
        """I - c u w^T for the vectors u and w and the field scalar c."""
        p, n, c = self.p, self.n, c.coeffs[0]
        cw = [c * x % p for x in w]
        d = [-a * b % p for a in u for b in cw]
        for i in range(0, n * n, n + 1):
            d[i] = (d[i] + 1) % p
        return self._pack(d)

    def entry(self, a, i: int, j: int):
        return self._element(self._ints(a)[i * self.n + j])

    def dot(self, u, v):
        return self._element(sum(map(operator.mul, u, v)) % self.p)

    def encode_vector(self, v) -> tuple:
        """The field elements (or integers) v as entries of this kind."""
        element = self.field.element
        return tuple([element(x).coeffs[0] for x in v])

    def inverse(self, a):
        n, rows = self.n, self._rows(self._ints(a))
        work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        if not _row_reduce_mod(self.p, work, n, reduced=True)[1]:
            raise SingularMatrix("matrix is singular")
        return self._pack([x for row in work for x in row[n:]])

    @staticmethod
    def key(a: bytes) -> bytes:
        return a

    sort_key = to_bytes = key

    def to_matrix(self, a) -> Matrix:
        element, rows = self._element, self._rows(self._ints(a))
        return Matrix._trusted(self.field, [[element(c) for c in row] for row in rows])

    def encode(self, M: Matrix):
        """The canonical bytes of M, or None when M is not an element of this kind."""
        return M.canonical_bytes() if _fits(self, M) else None


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """Calls that read the rows, the columns and the entries of the transpose
    off the row-major entries of an n x n matrix, each as a tuple."""
    nn = n * n
    keys = (
        [slice(i, i + n) for i in range(0, nn, n)],
        [slice(j, nn, n) for j in range(n)],
        [j * n + i for i in range(n) for j in range(n)],
    )
    return tuple(_getter(k) for k in keys)


def _getter(keys: list):
    """One call that reads the keys, indices or slices, of a sequence, as a
    tuple."""
    get = operator.itemgetter(*keys)
    return get if len(keys) > 1 else lambda v: (get(v),)


def _fits(kind, M: Matrix) -> bool:
    """Whether M is an n x n matrix over the kind's field: encode's first check."""
    return M.field == kind.field and M.nrows == M.ncols == kind.n


class GroupHandle:
    """An enumerated finite matrix group.

    ``elements`` are its dense matrices in canonical order and ``gens`` its
    generators.  Internally the handle holds engine elements of one kind:
    ``items``, sorted canonically, and ``item_gens``, which for a subgroup
    found by the engine is its generating subset, computed on first use.
    A handle made by the engine holds its enumeration in the order it was
    found and sorts it on the first read of ``items``, so ``order``,
    ``byteset``, membership and the key set cost no sort.  Dense matrices are
    built on first use too.  The public constructor encodes explicit dense
    matrices on _matrix_kind's kind and keeps their given order; a matrix of
    another field or shape raises BadInput.
    """

    __slots__ = ("kind", "_enum", "_items", "_item_gens", "_elements", "_gens", "_byteset", "_keys")

    def __init__(self, field, n: int, elements, gens):
        kind = _matrix_kind(field, n)
        elements, gens = (tuple(map(kind.encode, ms)) for ms in (elements, gens))
        if any(x is None for x in elements + gens):
            raise BadInput(f"every matrix must be {n} x {n} over {field}")
        self._set(kind, elements, gens)
        self._items = self._enum

    @classmethod
    def _make(cls, kind, enum, item_gens=None) -> "GroupHandle":
        """A handle over the elements of enum, in any order."""
        handle = cls.__new__(cls)
        handle._set(kind, tuple(enum), None if item_gens is None else tuple(item_gens))
        return handle

    def _set(self, kind, enum: tuple, item_gens) -> None:
        self.kind = kind
        self._enum = enum
        self._item_gens = item_gens
        self._items = self._elements = self._gens = self._byteset = self._keys = None

    @property
    def field(self):
        return self.kind.field

    @property
    def n(self) -> int:
        return self.kind.n

    @property
    def order(self) -> int:
        return len(self._enum)

    @property
    def items(self) -> tuple:
        if self._items is None:
            self._items = self._enum = _sorted(self.kind, self._enum)
        return self._items

    @property
    def item_gens(self) -> tuple:
        if self._item_gens is None:
            self._item_gens = _generating_subset(self.kind, self.items)
        return self._item_gens

    @property
    def elements(self) -> tuple[Matrix, ...]:
        if self._elements is None:
            self._elements = tuple(map(self.kind.to_matrix, self.items))
        return self._elements

    @property
    def gens(self) -> tuple[Matrix, ...]:
        if self._gens is None:
            self._gens = tuple(map(self.kind.to_matrix, self.item_gens))
        return self._gens

    def byteset(self) -> frozenset:
        if self._byteset is None:
            self._byteset = frozenset(map(self.kind.to_bytes, self._enum))
        return self._byteset

    def _keyset(self) -> frozenset:
        if self._keys is None:
            self._keys = frozenset(map(self.kind.key, self._enum))
        return self._keys

    def __contains__(self, m: Matrix) -> bool:
        x = self.kind.encode(m)
        return x is not None and self.kind.key(x) in self._keyset()


def _sorted(kind, elems) -> tuple:
    return tuple(sorted(elems, key=kind.sort_key))


@functools.lru_cache(maxsize=None)
def _matrix_kind(field, n: int):
    """The kind of n x n matrices over field: canonical bytes over a prime
    field, Matrix elements over an extension field.  It is made once per
    field and shape, so equal descriptors share one kind."""
    return PrimeKind(field, n) if field.k == 1 else DenseKind(field, n)


def closure(gens: list[Matrix], cap: int) -> GroupHandle:
    """Product closure of the generators; raises CapExceeded past cap.

    The group is enumerated by _grow's coset enumeration.  The element set is
    generator-order independent.  The handle holds the enumeration as _grow
    found it and sorts it canonically on the first read of its items or
    elements, and it keeps every given generator.  Every generator list is
    closed on _matrix_kind's kind for its field and shape, and a singular
    generator raises SingularGenerator.
    """
    if not gens:
        raise SingularGenerator("need at least one generator")
    fld, n = gens[0].field, gens[0].nrows
    if any(g.nrows != n or g.ncols != n or g.field != fld for g in gens):
        raise SingularGenerator("generators must be square over one field")
    kind = _matrix_kind(fld, n)
    items = [kind.encode(g) for g in gens]
    if not all(map(kind.det, items)):
        raise SingularGenerator("singular generator")
    seen = _grow(kind, items, cap)[0]
    return GroupHandle._make(kind, seen.values(), items)


def _powers(kind, x, bound: int) -> list:
    """[x^0, ..., x^(o-1)] for the order o of x, or None when o > bound."""
    key, ident = kind.key, kind.key(kind.identity)
    out = [kind.identity]
    cur = x
    while key(cur) != ident:
        if len(out) >= bound:
            return None
        out.append(cur)
        cur = kind.mul(cur, x)
    return out


def element_order(g: GroupHandle, m: Matrix) -> int:
    if m not in g:
        raise BadInput("matrix is not an element of the group")
    powers = _powers(g.kind, g.kind.encode(m), g.order)
    if powers is None:
        raise InvariantViolation("element order exceeded group order")
    return len(powers)


def _grow(kind, cands, cap=math.inf) -> tuple[dict, list]:
    """Closure of the candidates by Dimino's coset enumeration; returns
    (key -> element, the candidates that enlarged the running subgroup).

    The first candidate c that is not the identity generates the cyclic
    group of its powers, one product per element.  When a later candidate c
    is not in the group H generated so far, <H, c> is a disjoint union of
    right cosets H*r.  The representatives start at c; for each
    representative r and each effective candidate g, an r*g not yet seen
    adds its coset H*(r*g) and becomes a representative.  The union is then
    closed under every effective candidate, so it is <H, c>, at a cost of
    |H| products per coset plus one per representative and generator
    (Butler, LNCS 559, ch. 7).  H and the effective candidates stay fixed
    while <H, c> is built, so the kind stacks both once and forms each coset
    as kind.coset(sub, r) and each representative's products as
    kind.products(r, gens), which are tested in order.  Cosets are
    disjoint, and the powers stop past cap, so CapExceeded is raised exactly
    when the closure has more than cap elements.
    """
    key, coset, products = kind.key, kind.coset, kind.products
    ident = kind.identity
    seen = {key(ident): ident}
    effective: list = []

    def add_coset(r) -> None:
        if len(seen) + len(sub) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        ys = coset(sub, r)
        seen.update(zip(map(key, ys), ys))
        reps.append(r)

    for c in cands:
        if key(c) in seen:
            continue
        effective.append(c)
        if len(effective) == 1:
            powers = _powers(kind, c, cap)
            if powers is None:
                raise CapExceeded(f"closure exceeded cap {cap}")
            seen.update(zip(map(key, powers), powers))
            continue
        sub, gens = kind.stack(seen.values()), kind.stack(effective)
        reps: list = []
        add_coset(c)
        for r in reps:  # walks the representatives as they are found
            for y in products(r, gens):
                if key(y) not in seen:
                    add_coset(y)
    return seen, effective


def _conjugacy_class(g: GroupHandle, seed) -> list:
    """The conjugates of seed, breadth-first: each round forms h*x*h^-1 for
    the whole frontier and a generator h as one kind.coset and one
    kind.products, and visits them x-major, then by generator, in the order
    of a BFS that forms one conjugate at a time."""
    kind = g.kind
    key, stack, coset, products = kind.key, kind.stack, kind.coset, kind.products
    pairs = [(h, kind.inverse(h)) for h in g.item_gens]
    seen = {key(seed): seed}
    frontier = [seed]
    while frontier:
        sub = stack(frontier)
        per_generator = [products(h, stack(coset(sub, h_inv))) for h, h_inv in pairs]
        frontier = []
        for y in chain.from_iterable(zip(*per_generator)):
            k = key(y)
            if k not in seen:
                seen[k] = y
                frontier.append(y)
    return list(seen.values())


def _generating_subset(kind, items) -> tuple:
    """Small deterministic generating set of the subgroup whose elements are
    items, given in canonical order: each element that enlarges the subgroup
    generated by the elements before it."""
    gens = _grow(kind, items)[1]
    return tuple(gens) if gens else (kind.identity,)


def normal_subgroups(g: GroupHandle) -> list[GroupHandle]:
    """All normal subgroups, as join-closure of single-element normal closures.

    Sorted by order, then canonical encoding; complete for enumerated groups.
    """
    if g.order > NORMAL_SUBGROUP_CAP:
        raise TooLarge(f"group of order {g.order} exceeds {NORMAL_SUBGROUP_CAP}")
    kind = g.kind
    key = kind.key
    found: dict[frozenset, list] = {frozenset([key(kind.identity)]): [kind.identity]}
    # one normal closure per conjugacy class: the subgroup generated by a full
    # class is normal, and conjugate seeds close identically.  When a power of
    # x lies in a class y already closed and x lies in N(y), then N(x) = N(y).
    closure_of: dict = {}  # key of an element of a closed class -> its keyset
    for x in g.items:
        kx = key(x)
        if kx in closure_of:
            continue
        cls = _conjugacy_class(g, x)
        nc = None
        for z in _powers(kind, x, g.order):
            m = closure_of.get(key(z))
            if m is not None and kx in m:
                nc = m
                break
        if nc is None:
            # _grow costs a class's redundant elements a membership test each
            sub = _grow(kind, cls)[0]
            nc = frozenset(sub)
            found.setdefault(nc, list(sub.values()))
        for c in cls:
            closure_of[key(c)] = nc
    # close under joins: every pair is joined once, new subgroups included
    subs = list(found.items())
    i = 0
    while i < len(subs):
        ka, a = subs[i]
        for kb, b in subs[:i]:
            if ka <= kb or kb <= ka:
                continue
            join = _grow(kind, a + b)[0]
            kj = frozenset(join)
            if kj not in found:
                found[kj] = list(join.values())
                subs.append((kj, found[kj]))
        i += 1
    out = [GroupHandle._make(kind, elems) for elems in found.values()]
    out.sort(key=lambda h: (h.order, [kind.sort_key(x) for x in h.items]))
    return out


def gamma_d(g: GroupHandle, d: int, normals: list[GroupHandle] | None = None) -> GroupHandle:
    """Intersection of all normal subgroups of index at most d.

    normals, when given, is normal_subgroups(g).
    """
    if d < 1:
        raise BadInput(f"d must be positive, got {d}")
    if normals is None:
        normals = normal_subgroups(g)
    keep = g._keyset()
    for sub in normals:
        if g.order // sub.order <= d:
            keep = keep & sub._keyset()
    # an intersection of normal subgroups is one of them when the list is complete
    for sub in normals:
        if sub._keyset() == keep:
            return sub
    return GroupHandle._make(g.kind, (x for x in g._enum if g.kind.key(x) in keep))


def is_metacyclic_tn(g: GroupHandle, t: int, n: int):
    """Detect the metacyclic shape: normal cyclic C of order t, cyclic quotient
    of order |G|/t, and conjugation acting on C with multiplicative order n.

    Returns (bool, witness); the witness carries the two generators and the
    conjugation exponent.  Candidates are scanned generators-first, so the
    natural Frobenius generator is preferred when it qualifies.
    """
    if g.order > NORMAL_SUBGROUP_CAP:
        raise TooLarge(f"group of order {g.order} exceeds {NORMAL_SUBGROUP_CAP}")
    if g.order % t != 0:
        return False, None
    quot = g.order // t
    kind = g.kind
    key, mul, inverse = kind.key, kind.mul, kind.inverse
    ident = key(kind.identity)
    gen_keys = {key(h) for h in g.item_gens}
    candidates = list(g.item_gens) + [x for x in g.items if key(x) not in gen_keys]
    for x in candidates:
        if key(x) == ident:
            continue
        powers = _powers(kind, x, t)
        if powers is None or len(powers) != t:
            continue
        cset = {key(m): i for i, m in enumerate(powers)}
        # normality: conjugates of x by group generators stay in <x>
        if any(key(mul(mul(h, x), inverse(h))) not in cset for h in g.item_gens):
            continue
        for y in candidates:
            # coset order of y modulo C must be |G|/t
            cur = y
            e = 1
            while key(cur) not in cset:
                cur = mul(cur, y)
                e += 1
            if e != quot:
                continue
            exp = cset.get(key(mul(mul(y, x), inverse(y))))
            if exp is None or exp == 0:
                continue
            if mult_order_mod(exp, t) == n:
                witness = {"c": kind.to_matrix(x), "y": kind.to_matrix(y), "exponent": exp}
                return True, witness
    return False, None
