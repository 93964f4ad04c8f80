"""Slow, explicit field oracles that only the tests use.

norm_map computes the relative norm F_{p^n} -> F_{p^d} as x^((q-1)/(p^d-1))
and reads it back in subfield coordinates through an explicit embedding of
F_{p^d}: the least root of the subfield's modulus among the powers of a
generator of the order-(p^d - 1) subgroup, found by enumeration.  Criterion 8
and test_chars check the library's norm-kernel arithmetic against it.
"""

from functools import cache

from tamerep.errors import ToolkitError
from tamerep.ff import FieldDescriptor, FieldElement, find_generator, make_field


class NotADivisor(ToolkitError):
    pass


class EmbeddingFailure(ToolkitError):
    pass


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
