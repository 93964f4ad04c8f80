"""Exact arithmetic in F_p and F_{p^k} with a deterministic modulus choice.

Elements are immutable coefficient tuples in the polynomial basis (low degree
first).  Extension-field products are one numpy convolution followed by one
product with a cached reduction matrix.  The arrays are int64 whenever the
coefficient bounds allow it and object arrays of exact Python integers
otherwise, so very large characteristics stay exact on the same kernel.
Large-exponent powers use the Frobenius matrix of the field (p-ary
exponentiation), which matters for the degree-40..96 extensions the sweep
visits.

The modulus of F_{p^k} is the lexicographically smallest monic irreducible of
degree k, comparing coefficient tuples low degree first, so descriptors are
reproducible across runs and machines.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .arith import cyclotomic_value, divisors, factorize, is_prime
from .errors import (
    DegreeZero,
    EmbeddingFailure,
    NonPrimeCharacteristic,
    NotADivisor,
    SizeOverflow,
    ZeroElement,
)

# The documented cap protects against runaway field sizes; arithmetic itself
# is exact at any size (Python integers).
SIZE_CAP = 1 << 512

# A product's convolution + reduction sums stay below k^2 * p^3, which int64
# holds under the bounds in _np_safe.
_NP_P_LIMIT = 2**19


def _np_safe(p: int, k: int):
    """Array dtype for F_p[x]/(f) with deg f = k: int64 when the sums fit,
    object (exact Python integers) otherwise."""
    return np.int64 if p <= _NP_P_LIMIT and k * k * p * p * p < 1 << 61 else object


class _PolyRing:
    """F_p[x] modulo a fixed monic polynomial of degree k >= 2; shared
    mul/pow machinery."""

    __slots__ = ("p", "k", "mod", "dtype", "_redux", "_frob")

    def __init__(self, p: int, mod: tuple[int, ...]):
        self.p = p
        self.k = len(mod) - 1
        self.mod = mod
        self.dtype = _np_safe(p, self.k)
        self._frob = None
        k = self.k
        # rows[j] = coefficients of x^(k+j) mod f, built by shifting
        top = [(-c) % p for c in mod[:k]]
        rows = [top]
        for _ in range(k - 2):
            prev = rows[-1]
            row = [0] + prev[:-1]
            lead = prev[-1]
            if lead:
                row = [(a + lead * b) % p for a, b in zip(row, top)]
            rows.append(row)
        self._redux = np.array(rows, dtype=self.dtype)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        arr = self.mul_arr(np.array(a, dtype=self.dtype), np.array(b, dtype=self.dtype))
        return tuple(arr.tolist())

    def mul_arr(self, a, b):
        k = self.k
        c = np.convolve(a, b)
        res = c[:k] + c[k:] @ self._redux
        res %= self.p
        return res

    def pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        one = (1,) + (0,) * (self.k - 1)
        if e == 0:
            return one
        result = one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def frobenius_matrix(self):
        """Columns are coordinates of x^(j*p) mod f."""
        if self._frob is None:
            k = self.k
            xp = self.pow((0, 1) + (0,) * (k - 2), self.p)
            cols = [(1,) + (0,) * (k - 1)]
            for _ in range(k - 1):
                cols.append(self.mul(cols[-1], xp))
            self._frob = np.array(cols, dtype=self.dtype).T
        return self._frob

    def frobenius(self, a: tuple[int, ...]) -> tuple[int, ...]:
        v = self.frobenius_matrix() @ np.array(a, dtype=self.dtype)
        v %= self.p
        return tuple(v.tolist())

    def pow_pary(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        """a^e via base-p digits of e and repeated Frobenius; fast for huge e."""
        one = (1,) + (0,) * (self.k - 1)
        if e == 0:
            return one
        digits = []
        while e:
            digits.append(e % self.p)
            e //= self.p
        small: dict[int, tuple[int, ...]] = {0: one, 1: a}

        def small_pow(d):
            if d not in small:
                small[d] = self.mul(small_pow(d - 1), a)
            return small[d]

        result = small_pow(digits[-1])
        for d in reversed(digits[:-1]):
            result = self.frobenius(result)
            if d:
                result = self.mul(result, small_pow(d))
        return result


def _poly_root_free(coeffs: list[int], p: int) -> bool:
    """No roots in F_p (checked only for small p; used as a cheap pre-filter)."""
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    return True


def _poly_gcd_is_one(a: list[int], b: list[int], p: int) -> bool:
    a = list(a)
    b = list(b)
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        while len(a) - 1 >= db and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) - 1 < db or not a:
                break
            f = a[-1] * inv % p
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - f * b[i]) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    while a and a[-1] == 0:
        a.pop()
    return len(a) == 1 and a[0] != 0


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial given low-degree-first with leading 1."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False
    if p <= 4096 and not _poly_root_free(list(coeffs), p):
        return False
    ring = _PolyRing(p, coeffs)
    x = (0, 1) + (0,) * (k - 2)
    checkpoints = {k // r for r in factorize(k)}
    cur = x
    frobs = {}
    for step in range(1, k + 1):
        cur = ring.frobenius(cur)
        if step in checkpoints:
            frobs[step] = cur
    if cur != x:  # x^{p^k} must equal x
        return False
    for step, val in frobs.items():
        diff = list(val)
        diff[1] = (diff[1] - 1) % p
        if not _poly_gcd_is_one(list(coeffs), diff, p):
            return False
    return True


def _int_to_coeffs(j: int, p: int, k: int) -> tuple[int, ...]:
    digits = []
    for _ in range(k):
        digits.append(j % p)
        j //= p
    return tuple(reversed(digits))


class FieldDescriptor:
    """A concrete F_{p^k} with its deterministic modulus.

    Construct through make_field, which interns descriptors so that repeated
    calls hand back the same object.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus",
        "ring",
        "zero",
        "one",
        "_gen",
        "_q1_factors",
        "_zeta_cache",
        "_nonsquare",
        "_embed_cache",
        "_byte_width",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.ring = _PolyRing(p, modulus) if k >= 2 else None
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))
        self._gen = None
        self._q1_factors = None
        self._zeta_cache = {}
        self._nonsquare = None
        self._embed_cache = {}
        self._byte_width = (p.bit_length() + 7) // 8

    def __repr__(self):
        return f"F_{self.p}^{self.k}" if self.k > 1 else f"F_{self.p}"

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldDescriptor)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def element(self, value) -> "FieldElement":
        """Coerce an int (constant) or a length-k coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError(f"element of {value.field} given to {self}")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def elements(self):
        """All field elements in coefficient-lexicographic order."""
        for j in range(self.q):
            yield FieldElement(self, _int_to_coeffs(j, self.p, self.k))

    def element_at(self, j: int) -> "FieldElement":
        return FieldElement(self, _int_to_coeffs(j, self.p, self.k))

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    def q1_factors(self) -> dict[int, int]:
        """Factorization of q - 1, via the cyclotomic splitting for k >= 2."""
        if self._q1_factors is None:
            if self.k == 1:
                self._q1_factors = factorize(self.p - 1)
            else:
                total: dict[int, int] = {}
                for d in divisors(self.k):
                    for r, e in factorize(cyclotomic_value(d, self.p)).items():
                        total[r] = total.get(r, 0) + e
                check = 1
                for r, e in total.items():
                    check *= r**e
                assert check == self.q - 1
                self._q1_factors = total
        return self._q1_factors

    def nonsquare(self) -> "FieldElement":
        """First non-square unit in enumeration order (q odd)."""
        if self._nonsquare is None:
            for x in self.elements():
                if not x.is_zero() and not is_square(x):
                    self._nonsquare = x
                    break
        return self._nonsquare


class FieldElement:
    """Immutable element of a FieldDescriptor, coefficients low degree first."""

    __slots__ = ("field", "coeffs", "_arr")

    def __init__(self, field: FieldDescriptor, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs
        self._arr = None

    def _as_arr(self):
        if self._arr is None:
            self._arr = np.array(self.coeffs, dtype=self.field.ring.dtype)
        return self._arr

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}@{self.field!r}"

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and (
                self.field is other.field or self.field == other.field
            )
        if isinstance(other, int):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        f = self.field
        # element() coerces ints and rejects elements of another field
        if isinstance(other, int) or other.field is not f:
            other = f.element(other)
        if f.k == 1:
            return FieldElement(f, ((self.coeffs[0] + other.coeffs[0]) % f.p,))
        return FieldElement(
            f, tuple((a + b) % f.p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if isinstance(other, int) or other.field is not f:
            other = f.element(other)
        if f.k == 1:
            return FieldElement(f, ((self.coeffs[0] - other.coeffs[0]) % f.p,))
        return FieldElement(
            f, tuple((a - b) % f.p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return self.field.element(other) - self

    def __neg__(self):
        f = self.field
        return FieldElement(f, tuple((-a) % f.p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            c = other % f.p
            if c == 0:
                return f.zero
            if c == 1:
                return self
            return FieldElement(f, tuple(a * c % f.p for a in self.coeffs))
        if other.field is not f:
            other = f.element(other)
        if f.k == 1:
            return FieldElement(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        arr = f.ring.mul_arr(self._as_arr(), other._as_arr())
        out = FieldElement(f, tuple(arr.tolist()))
        out._arr = arr
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int) or other.field is not self.field:
            other = self.field.element(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        if f.k == 1:
            return FieldElement(f, (pow(self.coeffs[0], e, f.p),))
        ring = f.ring
        # p-ary exponentiation pays off once e spans several base-p digits
        if f.k >= 16 and e > f.p**4:
            return FieldElement(f, ring.pow_pary(self.coeffs, e))
        return FieldElement(f, ring.pow(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        f = self.field
        if self.is_zero():
            raise ZeroElement("zero has no inverse")
        if f.k == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        p = f.p
        r0, r1 = list(f.modulus), list(self.coeffs)
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
        # r0 is a nonzero constant gcd; s0 * self = r0
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1 or r0[0] == 0:
            raise ZeroElement("element is not invertible")
        c = pow(r0[0], p - 2, p)
        out = [v * c % p for v in s0]
        out += [0] * (f.k - len(out))
        return FieldElement(f, tuple(out[: f.k]))

    def lex_key(self) -> tuple[int, ...]:
        return self.coeffs

    def to_bytes(self) -> bytes:
        w = self.field._byte_width
        return b"".join(c.to_bytes(w, "little") for c in self.coeffs)


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldDescriptor:
    """F_{p^k} with the deterministic (lex-least) irreducible modulus."""
    if k <= 0:
        raise DegreeZero(f"extension degree must be positive, got {k}")
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    # p >= 2, so a k of the cap's bit length or more is past it; p**k would
    # take seconds to build at k = 10^7 and hang the caller at 10^9
    if k >= SIZE_CAP.bit_length() or p**k > SIZE_CAP:
        raise SizeOverflow(f"{p}^{k} exceeds the supported field size 2^512")
    if k == 1:
        return FieldDescriptor(p, 1, (0, 1))
    j = p ** (k - 1)  # first candidate has constant term 1, the rest 0
    while True:
        coeffs = _int_to_coeffs(j, p, k) + (1,)
        if is_irreducible(coeffs, p):
            return FieldDescriptor(p, k, coeffs)
        j += 1


def find_generator(f: FieldDescriptor) -> FieldElement:
    """Least element (coefficient-lex enumeration order) of order q - 1."""
    if f._gen is not None:
        return f._gen
    primes = sorted(f.q1_factors())
    exps = [(f.q - 1) // r for r in primes]
    j = 1
    while True:
        x = f.element_at(j)
        if not x.is_zero() and all(x**e != f.one for e in exps):
            f._gen = x
            return x
        j += 1


def mul_order(x: FieldElement) -> int:
    """Multiplicative order; divides q - 1."""
    if x.is_zero():
        raise ZeroElement("order of zero is undefined")
    f = x.field
    e = f.q - 1
    for r in f.q1_factors():
        while e % r == 0 and x ** (e // r) == f.one:
            e //= r
    return e


def is_square(x: FieldElement) -> bool:
    """Euler criterion on the unit group; zero is rejected."""
    if x.is_zero():
        raise ZeroElement("square class of zero is undefined")
    f = x.field
    if f.p == 2:
        return True
    return x ** ((f.q - 1) // 2) == f.one


def sqrt(x: FieldElement) -> FieldElement:
    """Deterministic square root of a square (Tonelli-Shanks, canonical choice)."""
    f = x.field
    if x.is_zero():
        return f.zero
    if not is_square(x):
        raise ZeroElement(f"{x!r} is not a square")
    q = f.q
    if q % 4 == 3:
        r = x ** ((q + 1) // 4)
    else:
        # Tonelli-Shanks with the first non-square as auxiliary
        s, m = q - 1, 0
        while s % 2 == 0:
            s //= 2
            m += 1
        z = f.nonsquare() ** s
        c, t, r = z, x**s, x ** ((s + 1) // 2)
        while t != f.one:
            t2, i = t, 0
            while t2 != f.one:
                t2 = t2 * t2
                i += 1
            b = c ** (1 << (m - i - 1))
            r = r * b
            c = b * b
            t = t * c
            m = i
    neg = -r
    return r if r.lex_key() <= neg.lex_key() else neg


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


def _embedding(f: FieldDescriptor, d: int):
    """Basis of the image of F_{p^d} in f plus the chosen root, cached."""
    if d in f._embed_cache:
        return f._embed_cache[d]
    sub = make_field(f.p, d)
    if d == 1:
        root = f.zero
        basis = [f.one]
    else:
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
    f._embed_cache[d] = (sub, root, basis)
    return f._embed_cache[d]


def norm_map(x: FieldElement, d: int) -> FieldElement:
    """Relative norm F_{p^n} -> F_{p^d}, returned in subfield coordinates."""
    f = x.field
    if d < 1 or f.k % d != 0:
        raise NotADivisor(f"{d} does not divide {f.k}")
    if d == f.k:
        return x
    sub, _root, basis = _embedding(f, d)
    e = (f.q - 1) // (f.p**d - 1)
    y = x**e if not x.is_zero() else f.zero
    cols = [list(b.coeffs) for b in basis]
    sol = _solve_prime_linear(cols, list(y.coeffs), f.p)
    if sol is None:
        raise EmbeddingFailure(f"norm value {y!r} not in the embedded subfield")
    return sub.element(sol)
