"""Residual induced representations as explicit matrices over F_{l^k}.

The image of Frobenius is the monomial n-cycle Phi (wrap-around entry equal to
the character's uniformizer sign); a tame inertia generator maps to the
diagonal Sigma with entries zeta^(p^i) for a fixed element zeta of exact order
t.  build_residual_rep takes only O/S-type characters, and it alone checks
Phi Sigma Phi^-1 = Sigma^p, Sigma^t = I and Phi^n = sign * I, on the monomial
shapes, and raises InvariantViolation.  It keeps those shapes as
ResidualRep.shape after three O(n) checks: n is even, the diagonal entries
d_i of Sigma are pairwise distinct, and d_i * d_(perm^(n/2)(i)) = 1.  Every
O/S-type character passes them, so the build raises InvariantViolation when
one fails.  Sigma, the powers of its entries that the relations compare and
its O(n) checks do not depend on the sign, so they are computed once per
field, keyed on zeta and the diagonal itself, and the build of the other
sign reuses them; Phi and its checks are built for every character.  Once
k = ord_t(ell) is known the build raises TooLarge if the n x n matrices
would hold more than REP_COEFF_CAP coefficients, before any is built.
invariant_forms and commutant_dim read their answers off the
shapes: the one invariant Gram pairs each eigenline with its inverse
eigenline, and the commutant is the scalars.  The general solvers in n^2
unknowns live in the tests as oracles for these reads.  certs and sweep share
form_kind and image_analysis, which reads the image's order, its Gamma^d
filter and its metacyclic witness off the same checked facts and enumerates
no group.  image_group closes the image with the groups engine on
groups._matrix_kind's kind, as closure closes every generator list; it
stays public and, with the enumerating lattice of groups, is the answer
image_analysis is checked against in the tests, where the image is closed
on a monomial kind of their own for speed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .arith import has_mult_order, mult_order_mod
from .chars import TameCharacter, failed_type_condition
from .errors import BadInput, BadResidueChar, BadType, InvariantViolation, TooLarge
from .ff import FieldDescriptor, find_generator, make_field
from .groups import GroupHandle, closure
from .linalg import Matrix


# A representation stores n x n matrices of k coefficients each; above this
# many, n * n * k, the build raises TooLarge before any matrix is built.  At
# the cap a certificate takes about a second and 10 MB: (256,1031,257,+1,3083)
# is 8.5 MB.
REP_COEFF_CAP = 1 << 17


class FormKind(enum.Enum):
    SYMMETRIC = "symmetric"
    ALTERNATING = "alternating"
    NEITHER = "neither"


@dataclass(frozen=True)
class ResidualRep:
    chi: TameCharacter
    ell: int
    k: int
    field: FieldDescriptor
    Phi: Matrix
    Sigma: Matrix
    # (perm, c, partner) with Phi[i][perm[i]] = c[i] and partner = perm^(n/2),
    # as _hyperbolic_shape returns it
    shape: tuple

    @property
    def n(self) -> int:
        return self.chi.n

    @property
    def sigma_is_identity(self) -> bool:
        """Sigma = I, read off the diagonal, which the build checked Sigma is."""
        one = self.field.one
        return all(self.Sigma.rows[i][i] == one for i in range(self.n))


def _zeta_of_order(field: FieldDescriptor, t: int):
    """g^((q-1)/t) for the deterministic generator g; exact order t.  The
    generator search leaves it in field._zeta_cache for every prime t."""
    g = find_generator(field)
    if t not in field._zeta_cache:
        field._zeta_cache[t] = g ** ((field.q - 1) // t)
    return field._zeta_cache[t]


def _memo(field: FieldDescriptor, key: tuple, compute):
    """compute(), once per key and field.  It holds facts about one diagonal
    that do not depend on the sign, so the second sign's build reuses them;
    they live on the descriptor and die with it."""
    cache = field._tame_cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def build_residual_rep(chi: TameCharacter, ell: int) -> ResidualRep:
    """Matrices of the residual representation for chi at the residue prime ell.

    The O/S-type gate runs first and raises BadType with the name of the
    failed condition; then ell is checked.  A typed chi always passes
    _hyperbolic_shape's checks, so a failure there raises InvariantViolation.
    """
    reason = failed_type_condition(chi)
    if reason is not None:
        raise BadType(reason)
    if ell % 2 == 0 or ell in (chi.p, chi.t):
        raise BadResidueChar(f"ell = {ell} must be odd and distinct from p and t")
    k, field, Phi, Sigma = _tame_matrices(chi, ell)
    sign = field.one if chi.sign == 1 else field.minus_one
    shape = _hyperbolic_shape(*_check_tame_relations(Phi, Sigma, chi.p, chi.t, sign))
    if shape is None:
        raise InvariantViolation(f"{chi}: Sigma's entries are not paired by inversion")
    return ResidualRep(chi, ell, k, field, Phi, Sigma, shape)


def _tame_matrices(chi: TameCharacter, ell: int):
    """(k, F_{ell^k}, Phi, Sigma) for chi, with no type gate or check.
    Raises TooLarge when n * n * k exceeds REP_COEFF_CAP, before the field
    or any matrix is built."""
    n, p, t = chi.n, chi.p, chi.t
    k = mult_order_mod(ell, t) if t > 1 else 1
    if n * n * k > REP_COEFF_CAP:
        raise TooLarge(f"n * n * k = {n * n * k} coefficients per matrix exceeds {REP_COEFF_CAP}")
    field = make_field(ell, k)
    zeta = _zeta_of_order(field, t)
    base = chi.exponent_index % t

    def diagonal():
        return Matrix.diagonal(field, zeta.powers([base * pow(p, i, t) % t for i in range(n)]))

    # keyed on zeta itself: another zeta builds and checks its own diagonal
    Sigma = _memo(field, ("Sigma", zeta, base, p, t, n), diagonal)
    zero, one = field.zero, field.one
    rows = [[zero] * n for _ in range(n)]
    for col in range(1, n):
        rows[col - 1][col] = one
    rows[n - 1][0] = one if chi.sign == 1 else field.minus_one
    return k, field, Matrix._trusted(field, rows), Sigma


def _monomial_shape(M: Matrix):
    """(perm, entries) of a monomial matrix, or None."""
    perm, vals = [], []
    for row in M.rows:
        nz = [j for j, e in enumerate(row) if e]
        if len(nz) != 1:
            return None
        perm.append(nz[0])
        vals.append(row[nz[0]])
    return (tuple(perm), vals) if len(set(perm)) == len(perm) else None


def _check_tame_relations(Phi: Matrix, Sigma: Matrix, p: int, t: int, sign):
    """(perm, c, d) of Phi and Sigma; raise InvariantViolation unless
    Phi Sigma Phi^-1 = Sigma^p, Sigma^t = I and Phi^n = sign * I, read off
    the monomial shapes.

    With Phi[i][perm[i]] = c_i and Sigma = diag(d), Phi Sigma Phi^-1 is
    diag(d[perm[i]]), and Phi^n is the product of all c_i times I when perm
    is one n-cycle, checked first.  Then d_0^t = 1, and each passing
    d[perm[i]] = d_i^(p mod t) hands d^t = 1 on along the cycle, so each
    d_i^(p mod t) compared is d_i^p.  The powers are formed once per
    diagonal and field; the comparisons run every time.
    """
    n = Phi.nrows
    phi, sigma = _monomial_shape(Phi), _monomial_shape(Sigma)
    if phi is None or sigma is None or sigma[0] != tuple(range(n)):
        raise InvariantViolation("Phi is not monomial or Sigma is not diagonal")
    (perm, c), d = phi, tuple(sigma[1])
    j, length, prod = perm[0], 1, c[0]
    while j != 0:
        j, length, prod = perm[j], length + 1, prod * c[j]
    if length != n or prod != sign:
        raise InvariantViolation("Phi is not an n-cycle with Phi^n = sign * identity")
    e = p % t
    d_p, d0_t = _memo(Sigma.field, ("powers", d, e, t), lambda: ([x**e for x in d], d[0] ** t))
    if d0_t != Sigma.field.one:
        raise InvariantViolation("Sigma does not have order dividing t")
    if any(d[perm[i]] != d_p[i] for i in range(n)):
        raise InvariantViolation("tame relation Phi Sigma Phi^-1 = Sigma^p failed")
    return perm, c, d


def _partner(perm) -> list[int]:
    """perm^(n/2) for an n-cycle perm: it sends the s-th index along the cycle
    from 0 to the (s + n/2)-th, so it commutes with perm by construction."""
    n = len(perm)
    cyc = [0]
    for _ in range(n - 1):
        cyc.append(perm[cyc[-1]])
    partner = [0] * n
    for s, i in enumerate(cyc):
        partner[i] = cyc[(s + n // 2) % n]
    return partner


def _hyperbolic_shape(perm, c, d):
    """(perm, c, partner) when n is even, the d_i are pairwise distinct and
    d_i * d_partner(i) = 1 for partner = perm^(n/2); None otherwise.

    Distinct d_i force any X commuting with Sigma to be diagonal, and a
    diagonal X commuting with the n-cycle Phi is scalar.  Sigma^T G Sigma = G
    leaves G_ij free only where d_i d_j = 1, that is j = partner(i), and Phi
    links those n entries in one orbit whose factors c_i c_partner(i) multiply
    to sign^2 = 1, so the invariant forms are exactly one line.  The checks
    on d run once per diagonal, partner map and field.
    """
    n = len(perm)
    if n % 2:
        return None
    partner = _partner(perm)
    one = d[0].field.one

    def paired():
        return len(set(d)) == n and all(d[i] * d[partner[i]] == one for i in range(n))

    if not _memo(one.field, ("paired", tuple(d), tuple(partner)), paired):
        return None
    return perm, tuple(c), partner


def invariant_forms(rep: ResidualRep) -> list[Matrix]:
    """Basis of bilinear forms G with M^T G M = G for both generators.

    On rep.shape the basis is one Gram, with G[0][partner(0)] = 1 filled in
    around the n-cycle by Phi^T G Phi = G, which reads
    G[perm i][perm j] = c_i c_j G[i][j]; row 0 has no other nonzero entry, so
    the first nonzero entry (row-major) is 1.
    """
    perm, c, partner = rep.shape
    fld, n = rep.field, rep.n
    rows = [[fld.zero] * n for _ in range(n)]
    i, val = 0, fld.one
    for _ in range(n):
        rows[i][partner[i]] = val
        val = c[i] * c[partner[i]] * val
        i = perm[i]
    return [Matrix._trusted(fld, rows)]


def form_kind(G: Matrix) -> FormKind:
    if G.field.p == 2:
        raise BadResidueChar("form classification requires odd characteristic")
    Gt = G.transpose()
    if Gt == G:
        return FormKind.SYMMETRIC
    if Gt == -G and all(G.rows[i][i].is_zero() for i in range(G.nrows)):
        return FormKind.ALTERNATING
    return FormKind.NEITHER


def commutant_dim(rep: ResidualRep) -> int:
    """Dimension of the full commutant; 1 certifies absolute irreducibility.

    It is 1 on rep.shape: distinct Sigma entries make a commuting X diagonal,
    and the n-cycle Phi makes it scalar.
    """
    return 1


def expected_image_order(rep: ResidualRep) -> int:
    base = rep.n * rep.chi.t
    return base if rep.chi.sign == 1 else 2 * base


def image_group(rep: ResidualRep, cap: int) -> GroupHandle:
    return closure([rep.Phi, rep.Sigma], cap)


@dataclass(frozen=True)
class ImageStructure:
    """The image <Sigma> . <Phi> of a built representation, read off its shapes.

    t is the prime order of Sigma and f the order of Phi, n or 2n.  No
    Phi^e with 0 < e < f lies in <Sigma>, of odd order t: Phi^e is not
    diagonal unless n | e, and then it is -I.  So |G| = t*f.  Phi^e
    centralizes Sigma exactly when n | e, so a normal subgroup meeting
    <Sigma> trivially lies in <Sigma> x <Phi^n> and is 1 or <-I> = <Phi^n>
    (f = 2n only); every other one is <Sigma, Phi^e> of index e for an e | f.
    """

    t: int
    n: int
    f: int
    metacyclic: bool
    witness_exponent: int | None  # p mod t: Phi Sigma Phi^-1 = Sigma^(p mod t)

    @property
    def order(self) -> int:
        return self.t * self.f

    def gamma_order(self, d: int) -> int:
        """|Gamma^d|, the intersection of the normal subgroups of index <= d.

        Those of the form <Sigma, Phi^e> meet in <Sigma, Phi^L>, of order
        |G|/L, L the lcm of their indices e.  For d >= |G|/2 > f every e | f
        counts, so that is <Sigma>, which meets <-I> (index |G|/2) and 1 in 1.
        """
        if d < 1:
            raise BadInput(f"d must be positive, got {d}")
        if d >= self.order or (self.f == 2 * self.n and 2 * d >= self.order):
            return 1
        L = 1
        for e in range(2, min(d, self.f) + 1):
            if self.f % e == 0:
                L = math.lcm(L, e)
        return self.order // L


def image_analysis(rep: ResidualRep) -> ImageStructure:
    """The image structure of rep, with no group enumerated.

    The build has checked every fact it rests on: the type gate that t is
    prime and ord_t(p) = n, _check_tame_relations that Sigma^t = I,
    Phi Sigma Phi^-1 = Sigma^p and Phi is an n-cycle whose entries multiply
    to sign = +-1, and _hyperbolic_shape that the d_i are distinct.  The
    oracle in the tests is image_group with normal_subgroups, gamma_d and
    is_metacyclic_tn.
    """
    n, p, t = rep.n, rep.chi.p, rep.chi.t
    _perm, c, _partner = rep.shape
    f = n if math.prod(c[1:], start=c[0]) == rep.field.one else 2 * n
    metacyclic = not rep.sigma_is_identity and has_mult_order(p, n, t)
    return ImageStructure(t, n, f, metacyclic, p % t if metacyclic else None)
