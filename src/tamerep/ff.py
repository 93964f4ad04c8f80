"""Exact arithmetic in F_p and F_{p^k} with a deterministic modulus choice.

Elements are immutable coefficient tuples in the polynomial basis (low degree
first).  Extension-field products are one numpy convolution followed by one
product with a cached reduction matrix.  The arrays are int64 whenever the
coefficient bounds allow it and object arrays of exact Python integers
otherwise, so very large characteristics stay exact on the same kernel.
A product with the field's one or minus one returns the other factor or its
negation without a kernel call, as a product with the int 0 or 1 does.
Every extension-field power is p-ary, on the field's Frobenius matrix: a
base-p digit past the first costs one Frobenius step, not log2(p) squarings,
and the running value stays an array; one call takes a list of exponents,
which share one table of the base's digit powers.  A non-constant x has the
inverse x^(p + ... + p^(k-1)) / N(x), its power from the Itoh-Tsujii chain
of the generator search; a constant is inverted in F_p.
Matrices over F_p held as their canonical bytes are multiplied a whole
stack at a time, on either side of one matrix, for the cosets and the
representative products of the group engine's prime kind, on the same
int64-or-object rule: the stack is read from one joined buffer, and the
products are sliced from one buffer of the reduced result.

The modulus of F_{p^k} is the lexicographically smallest monic irreducible of
degree k, comparing coefficient tuples low degree first, so descriptors are
reproducible across runs and machines.  make_field searches for it with
candidates held as numpy arrays, float32 wherever their sums stay exact and
float64 otherwise: a root check in F_p for a chunk of about 4k of them at
once, then Rabin's test on batches of the survivors, taken in lex order
across chunks, with the k Frobenius steps of a batch's rows together and a
resultant only for the rare rows with x^(p^k) = x.  The first batch holds
at most 12 survivors, since the lex-least modulus is usually among them,
and each later one doubles, up to 2^19 bytes of Frobenius matrices.  Float
rows of the walk are reduced mod p only every few steps, and the Frobenius
rows x^(jp) with jp < k are set as unit vectors.  One recurrence on a block
of moduli, _reduction_rows, gives the rows x^(k+j) mod f both of a batch's
Frobenius matrices and of a field's reduction matrix.
is_irreducible is the same engine on one polynomial.  The winner's
Frobenius matrix, built for those steps, becomes the field's own.

The norm N(x) = x^((q-1)/(p-1)) is the resultant Res(f, x); an element
x^s h with h(0) != 0 costs O(k deg h) work in F_p, O(k) for the sparse
candidates of the generator search.  find_generator tests the primes of
q - 1 that divide p - 1 on the norm, and every other prime r on the norm
N_d(x) to the subfield F_{p^d}, d = ord_r(p).  The norms form a tower: N_d
is the Itoh-Tsujii product of N_D over the powers of x -> x^(p^d), D the
least tested degree above d that d divides, with N_k(x) = x, so no
Frobenius orbit of the candidate is kept.  For composite d the primes of
that degree share one power N_d(x)^(p^e - 1), e the largest proper divisor
of d, formed by the same chain, so each exponent has d - e base-p digits
rather than d, or k, and one digit table serves them all.  It keeps the
winner's powers g^((q-1)/r) as the field's elements of prime order r.
is_square reads the Legendre symbol of the norm on extension fields.

ff is the only module that uses numpy, and it imports it on first use: np
is a stand-in until an extension-field ring, a prime-kind product or a
modulus search first reads it, so prime fields, pair search and argument
checks run without numpy.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import index

from .arith import cyclotomic_value, divisors, factorize, is_prime
from .errors import (
    DegreeZero,
    InvariantViolation,
    NonPrimeCharacteristic,
    OddCharacteristicRequired,
    SizeOverflow,
    ZeroElement,
)


class _LazyNumpy:
    """numpy's stand-in until it is first needed.  The first attribute read
    imports numpy and rebinds this module's np to it, so every later read
    is the module itself at no cost."""

    __slots__ = ()

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

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


def _stack_mod_p(mats, field, n: int):
    """n x n matrices over the prime field F_p, each its canonical bytes (the
    entries row by row, each field._byte_width bytes little-endian), as one
    (count, n, n) array for _matmul_mod_p, read from one joined buffer.  A
    dot product of two rows sums below n (p-1)^2, so the array is int64 while
    that fits and object (exact Python integers) beyond."""
    p = field.p
    dtype = np.int64 if n * (p - 1) ** 2 < 1 << 63 else object
    return np.array(_entries(b"".join(mats), field._byte_width), dtype).reshape(-1, n, n)


# the entry widths with a numpy unsigned dtype, "<u{w}"
_LE_UINT = frozenset((1, 2, 4, 8))


def _entries(buf: bytes, w: int):
    """The w-byte little-endian entries of buf: a flat unsigned array while
    w <= 8, and Python integers beyond."""
    if w > 8:
        return [int.from_bytes(buf[i : i + w], "little") for i in range(0, len(buf), w)]
    if w in _LE_UINT:
        return np.frombuffer(buf, f"<u{w}")
    # widths with no numpy dtype: each entry zero-padded to 8 bytes
    raw = np.zeros((len(buf) // w, 8), np.uint8)
    raw[:, :w] = np.frombuffer(buf, np.uint8).reshape(-1, w)
    return raw.view("<u8").ravel()


def _matmul_mod_p(a, b, field) -> list:
    """a*b mod p where one side is a stack from _stack_mod_p and the other one
    matrix as its canonical bytes: the products with each stacked matrix in
    order, each as its canonical bytes, sliced from one buffer of the
    reduced array product."""
    stack = a if isinstance(a, np.ndarray) else b
    n, w = stack.shape[1], field._byte_width
    one = np.asarray(_entries(b if stack is a else a, w), stack.dtype).reshape(n, n)
    prod = stack @ one if stack is a else one @ stack
    prod %= field.p
    if prod.dtype == object:
        buf = b"".join([x.to_bytes(w, "little") for x in prod.ravel().tolist()])
    elif w in _LE_UINT:
        buf = prod.astype(f"<u{w}")
    else:  # the low w bytes of each little-endian 8-byte entry
        buf = np.ascontiguousarray(prod.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :w])
    # a void item of the element's size reads back as its bytes
    return np.frombuffer(buf, f"V{n * n * w}").tolist()


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
        # row j = coefficients of x^(k+j) mod f
        low = np.array([mod[: self.k]], dtype=self.dtype)
        self._redux = _reduction_rows(low, p, self.k - 1)[0]

    def mul_arr(self, a, b):
        # np.convolve's Python wrapper costs more than the correlate it calls
        c = np.correlate(a, b[::-1], "full")
        res = c[: self.k] + c[self.k :] @ self._redux
        res %= self.p
        return res

    def pow_arr(self, a, e: int):
        """a^e by square-and-multiply on arrays."""
        result = None
        while e:
            if e & 1:
                result = a if result is None else self.mul_arr(result, a)
            e >>= 1
            if e:
                a = self.mul_arr(a, a)
        return self.one_arr() if result is None else result

    def one_arr(self):
        one = np.zeros(self.k, dtype=self.dtype)
        one[0] = 1
        return one

    def frobenius_matrix(self):
        """Columns are coordinates of x^(j*p) mod f."""
        if self._frob is None:
            xp = self.pow_arr(np.array((0, 1) + (0,) * (self.k - 2), dtype=self.dtype), self.p)
            cols = [self.one_arr()]
            for _ in range(self.k - 1):
                cols.append(self.mul_arr(cols[-1], xp))
            self._frob = np.array(cols, dtype=self.dtype).T
        return self._frob

    def frobenius_arr(self, a):
        v = self.frobenius_matrix() @ a
        v %= self.p
        return v

    def frobenius_product(self, a, n: int, step: int = 1):
        """a * a^(p^step) * ... * a^(p^(step (n-1))) for n >= 1, the product
        of a over the first n powers of sigma^step, sigma the Frobenius
        x -> x^p, by the addition chain of Itoh & Tsujii (Inf. Comput. 78,
        1988): with s_j the product of the first j factors,
        s_2j = s_j * sigma^(step j)(s_j) and s_(j+1) = sigma^step(s_j) * a, so
        it takes about log2 n products and step (n - 1) Frobenius steps."""

        def shift(b, times: int):
            for _ in range(times * step):
                b = self.frobenius_arr(b)
            return b

        s, j = a, 1
        for bit in bin(n)[3:]:
            s, j = self.mul_arr(s, shift(s, j)), 2 * j
            if bit == "1":
                s, j = self.mul_arr(shift(s, 1), a), j + 1
        return s

    def pow_pary(self, a, exps):
        """a^e for each e >= 0 of exps in turn, each when it is asked for,
        via base-p digits and repeated Frobenius, on arrays: a digit past an
        exponent's first costs one Frobenius step and at most one product,
        and the powers a^d for the digits d that occur form one table that
        every exponent reads."""
        p = self.p
        digit_lists = []
        for e in exps:
            digits = []
            while e:
                digits.append(e % p)
                e //= p
            digit_lists.append(digits)
        # a^d for each digit d that occurs, each from the one below it, so
        # a large p costs O(log p) products per digit rather than O(p)
        a = np.asarray(a, dtype=self.dtype)
        small, below, power = {}, 0, None
        for d in sorted(set().union(*digit_lists) - {0}):
            piece = self.pow_arr(a, d - below)
            power = piece if power is None else self.mul_arr(power, piece)
            small[d], below = power, d
        for digits in digit_lists:
            if not digits:
                yield self.one_arr()
                continue
            result = small[digits[-1]]
            for d in reversed(digits[:-1]):
                result = self.frobenius_arr(result)
                if d:
                    result = self.mul_arr(result, small[d])
            yield result


def _resultant(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) in F_p for polynomials given low degree first, a with a
    nonzero leading coefficient and deg a >= deg b, by the Euclidean
    algorithm: Res(a, b) = (-1)^(mn) lc(b)^(m - deg r) Res(b, r) with
    r = a mod b, m = deg a, n = deg b, and Res(a, c) = c^m.

    It is zero exactly when a and b share a factor, and for a monic modulus
    f, Res(f, g) is the norm of g(x) from F_p[x]/(f) down to F_p.
    """
    res = 1
    a, b = list(a), list(b)
    while b and not b[-1]:
        b.pop()
    while True:
        if not b:
            return 0
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return res * pow(b[0], m, p) % p
        inv = pow(b[-1], -1, p)
        for i in range(m, n - 1, -1):
            c = a[i] * inv % p
            if c:
                for j in range(n):
                    a[i - n + j] = (a[i - n + j] - c * b[j]) % p
        del a[n:]
        while a and not a[-1]:
            a.pop()
        if m * n % 2:
            res = -res
        res = res * pow(b[-1], m - len(a) + 1, p) % p
        a, b = b, a


# Candidates are checked for roots in F_p only up to this characteristic,
# where the table of a^i for every a in F_p stays small.
_ROOT_FILTER_P = 4096


def _block_dtype(p: int, k: int):
    """Array dtype of the modulus search on degree-k candidates over F_p.

    Its sums stay below (k+1) (p-1)^2.  float32 while p times that is below
    2^24, float64 (below 2^53) wherever _np_safe allows int64, so that _mod
    stays exact; float products run through BLAS, several times faster than
    int64 ones, and float32 ones up to twice as fast again.  Object arrays
    cover the rest.
    """
    dtype = np.float32 if p * (k + 1) * (p - 1) ** 2 < 1 << 24 else np.float64
    return object if _np_safe(p, k) is object else dtype


def _mod(a, p: int):
    """a mod p in place.  Integer and object arrays take the remainder.  On
    float arrays a / p rounds correctly, and it cannot round up to the next
    integer while |a| + p is below 2^24 on float32 or 2^53 on float64, so
    its floor is exact for the integers _block_dtype allows; far cheaper
    than a float remainder."""
    if a.dtype.kind == "f":
        a -= p * np.floor(a / p)
    else:
        a %= p
    return a


def _reduction_rows(low, p: int, count: int):
    """The rows x^k, ..., x^(k+count-1) mod f of a block of monic moduli f of
    degree k, as a (moduli, count, k) array of low's dtype; low holds each
    modulus's coefficients below its leading 1.  x^k = -low, and each row
    after is the one before times x: a shift, whose top coefficient c
    wraps around as c x^k = -c low."""
    rows = np.zeros((low.shape[0], count, low.shape[1]), dtype=low.dtype)
    rows[:, 0] = -low
    _mod(rows[:, 0], p)
    for j in range(1, count):
        prev, row = rows[:, j - 1], rows[:, j]
        row[:, 1:] = prev[:, :-1]
        row -= prev[:, -1:] * low
        _mod(row, p)
    return rows


def _root_powers(p: int, k: int, dtype):
    """(k+1, p) table of a^i mod p, so that block @ table evaluates every
    candidate at every a in F_p; a^i = a^(i-p+1) for i >= p, by Fermat."""
    a = np.arange(p, dtype=np.int64)
    rows = [np.ones(p, dtype=np.int64)]
    for i in range(1, k + 1):
        rows.append(rows[-1] * a % p if i < p else rows[i - p + 1])
    return np.array(rows, dtype=dtype)


def _frobenius_block(low, p: int):
    """Frobenius matrices of a block of moduli, transposed: row j of each is
    x^(j p) mod f, a unit vector while j p < k, then the row before times x^p.

    Times x^p is a shift by p whose overflow, the top s = min(p, k)
    coefficients, is reduced through the rows x^(p+k-s), ..., x^(p+k-1):
    for p < k these are x^k, ..., x^(k+p-1) of _reduction_rows, which
    builds the field's own reduction table too; otherwise the whole matrix
    of x^p, a power of the companion matrix.  low holds each modulus's
    coefficients below its leading 1.
    """
    n, k = low.shape
    if p < k:
        over = _reduction_rows(low, p, p)
    else:
        comp = np.zeros((n, k, k), dtype=low.dtype)
        comp[:, 1:, :-1] = np.eye(k - 1, dtype=np.int64)
        comp[:, :, -1] = _mod(-low, p)
        power = comp
        for bit in bin(p)[3:]:
            power = _mod(power @ power, p)
            if bit == "1":
                power = _mod(power @ comp, p)
        over = power.transpose(0, 2, 1)
    s = over.shape[1]
    frob = np.zeros((n, k, k), dtype=low.dtype)
    units = (k - 1) // p + 1
    for j in range(units):
        frob[:, j, j * p] = 1
    for j in range(units - 1, k - 1):
        nxt = np.matmul(frob[:, j, None, k - s :], over)[:, 0]
        if s < k:
            nxt[:, s:] += frob[:, j, : k - s]
        frob[:, j + 1] = _mod(nxt, p)
    return frob


def _root_free(block, p: int, powers):
    """Indices of the rows of block with no root in F_p, with powers the
    table of _root_powers."""
    return np.flatnonzero((_mod(block @ powers, p) != 0).all(axis=1))


def _first_irreducible(block, p: int):
    """(index, Frobenius rows) of the first irreducible row of a block of
    monic candidates of degree k >= 2 (low degree first, nonzero constant
    terms), or None.  The rows are that candidate's Frobenius matrix from
    _frobenius_block, transposed.

    Rabin's test, run on the whole block at once: every row takes k
    Frobenius steps.  A row is irreducible when x^(p^k) = x and, for every
    prime r | k, gcd(f, x^(p^(k/r)) - x) = 1, that is
    Res(f, x^(p^(k/r)) - x) != 0.  Rows with x^(p^(k/r)) = x fail at once.
    When k is a prime power every other row with x^(p^k) = x passes, since a
    proper factor's degree would divide k/r; otherwise only those rare rows
    meet the resultants.  Float rows are reduced mod p only at the
    checkpoints, at step k and every lazy steps: a step multiplies the bound
    on their entries by k (p - 1), and _mod stays exact while p times it is
    below 2^24 on float32 or 2^53.  Object rows are reduced at every step.
    """
    k = block.shape[1] - 1
    frob = _frobenius_block(block[:, :k], p)
    checkpoints = {k // r for r in factorize(k)}
    lazy, bound = 1, (p - 1) * k * (p - 1)
    limit = 1 << (24 if block.dtype == np.float32 else 53)
    while block.dtype != object and lazy < k and p * bound * k * (p - 1) < limit:
        lazy, bound = lazy + 1, bound * k * (p - 1)
    x = np.zeros_like(block[:, :k])
    x[:, 1] = 1
    cur = x
    hit = np.ones(len(block), dtype=bool)
    saved = []
    for step in range(1, k + 1):
        cur = np.matmul(cur[:, None, :], frob)[:, 0]
        if step in checkpoints:
            cur = _mod(cur, p)
            hit &= (cur != x).any(axis=1)
            saved.append(cur)
        elif step % lazy == 0 or step == k:
            cur = _mod(cur, p)
    hit &= (cur == x).all(axis=1)
    for i in np.flatnonzero(hit):
        coeffs = [int(c) for c in block[i]]
        for val in saved if len(saved) > 1 else ():
            diff = [int(c) for c in val[i]]
            diff[1] = (diff[1] - 1) % p
            if not _resultant(coeffs, diff, p):
                break
        else:
            return int(i), frob[i]
    return None


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial given low-degree-first with leading
    1: the root filter and Rabin batches of make_field on a single row."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False
    dtype = _block_dtype(p, k)
    block = np.array([coeffs], dtype=dtype)
    if p <= _ROOT_FILTER_P:
        if not len(_root_free(block, p, _root_powers(p, k, dtype))):
            return False
        if k <= 3:
            return True
    return _first_irreducible(block, p) is not None


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
        "minus_one",
        "_gen",
        "_q1_factors",
        "_zeta_cache",
        "_tame_cache",
        "_nonsquare",
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
        self.minus_one = FieldElement(self, ((p - 1) % p,) + (0,) * (k - 1))
        self._gen = None
        self._q1_factors = None
        self._zeta_cache = {}
        self._tame_cache = {}
        self._nonsquare = None
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
        """Coerce an int (constant) or a length-k coefficient sequence of ints.
        A bool or a non-integer digit such as 1.9 raises TypeError instead of
        being read as 0/1 or truncated."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError(f"element of {value.field} given to {self}")
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        digits = tuple(value)
        if any(isinstance(c, bool) for c in digits):
            raise TypeError(f"digits must be integers, got {digits}")
        coeffs = tuple(index(c) % self.p for c in digits)
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
        """Factorization of q - 1, via the cyclotomic splitting prod_{d | k} Phi_d(p)."""
        if self._q1_factors is None:
            total: dict[int, int] = {}
            for d in divisors(self.k):
                for r, e in factorize(cyclotomic_value(d, self.p)).items():
                    total[r] = total.get(r, 0) + e
            if prod(r**e for r, e in total.items()) != self.q - 1:
                raise InvariantViolation(f"factors {total} do not multiply to q - 1 = {self.q - 1}")
            self._q1_factors = total
        return self._q1_factors

    def nonsquare(self) -> "FieldElement":
        """First non-square unit in enumeration order (q odd)."""
        if self.p == 2:
            raise OddCharacteristicRequired(f"every element of F_{self.q} is a square")
        if self._nonsquare is None:
            for x in self.elements():
                if not x.is_zero() and not is_square(x):
                    self._nonsquare = x
                    break
            else:
                raise InvariantViolation(f"every unit of {self} read as a square")
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
        # products by +-1 need no kernel call
        one, minus_one = f.one.coeffs, f.minus_one.coeffs
        if other.coeffs == one:
            return self
        if self.coeffs == one:
            return other
        if other.coeffs == minus_one:
            return -self
        if self.coeffs == minus_one:
            return -other
        return _from_arr(f, f.ring.mul_arr(self._as_arr(), other._as_arr()))

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
        return _from_arr(f, next(f.ring.pow_pary(self._as_arr(), [e])))

    def powers(self, exps) -> list["FieldElement"]:
        """[self ** e for e in exps], each e >= 0; on an extension field from
        one pow_pary call, whose table of digit powers the exponents share."""
        f = self.field
        if f.k == 1:
            return [self**e for e in exps]
        return [_from_arr(f, arr) for arr in f.ring.pow_pary(self._as_arr(), exps)]

    def inverse(self) -> "FieldElement":
        """y / N with y = x^(p + ... + p^(k-1)), the product of the other
        conjugates of x, and N = x y, the norm in F_p, checked as such."""
        f = self.field
        if self.is_zero():
            raise ZeroElement("zero has no inverse")
        if not any(self.coeffs[1:]):
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),) + self.coeffs[1:])
        ring, x = f.ring, self._as_arr()
        y = ring.frobenius_product(ring.frobenius_arr(x), f.k - 1)
        norm = ring.mul_arr(x, y)
        if not norm[0] or norm[1:].any():
            raise InvariantViolation(f"norm {norm.tolist()} of {self!r} is not a nonzero constant")
        return _from_arr(f, y * pow(int(norm[0]), -1, f.p) % f.p)

    def lex_key(self) -> tuple[int, ...]:
        return self.coeffs

    def to_bytes(self) -> bytes:
        w = self.field._byte_width
        return b"".join(c.to_bytes(w, "little") for c in self.coeffs)


def _from_arr(f: FieldDescriptor, arr) -> FieldElement:
    """The element of f with kernel array arr, kept for its next product."""
    out = FieldElement(f, tuple(arr.tolist()))
    out._arr = arr
    return out


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
    modulus, frob_rows = _lex_least_irreducible(p, k)
    field = FieldDescriptor(p, k, modulus)
    if frob_rows is not None:
        # the search's Frobenius matrix of the modulus, as a copy, so the
        # block it came from is freed
        field.ring._frob = np.array(frob_rows.T, dtype=field.ring.dtype)
    return field


def _block_digits(p: int, k: int) -> tuple[int, int]:
    """(m, span) for chunks of span prefixes of p^m candidates each: m is
    the largest m <= k - 1 (the constant term stays in the prefix) with
    p^m <= max(32, 4k), and span = 4k // p^m, at least 1, or 1 for m = 0.

    About one candidate in k is irreducible, so 4k candidates usually hold
    one, and below 32 the fixed cost of a chunk's root filter would dominate.
    With m = 0, p > max(32, 4k), and each candidate costs p root evaluations.
    """
    want = max(32, 4 * k)
    m = 0
    while m < k - 1 and p ** (m + 1) <= want:
        m += 1
    return m, max(1, 4 * k // p**m) if m else 1


# The first Rabin batch of the modulus search holds at most this many rows.
_FIRST_BATCH = 12


def _lex_least_irreducible(p: int, k: int):
    """(f, Frobenius rows of f or None) for the lex-least monic irreducible f
    of degree k >= 2, as _first_irreducible returns them.

    A chunk is span consecutive prefixes, the coefficients below x^(k-m)
    counted in base p from 1, 0, ..., 0 to p-1, ..., p-1 and cut where the
    last one carries, each with every tail in lex order (_block_digits).
    Each chunk takes the root filter, which for k <= 3 decides; its
    survivors join, in lex order and across chunks, the batches that take
    Rabin's test.  The first irreducible of the first batch that holds one
    is the lex-least.  After the last prefix the survivors short of a batch
    are tested, and when none is irreducible the engine is wrong:
    InvariantViolation.

    A batch costs about 2k numpy calls whatever its size, and each row adds
    a walk of k steps of k^2 products.  The winner is most often among the
    first few survivors, so the first batch is the survivors of the first
    chunk that has any, at most _FIRST_BATCH of them; each later batch
    doubles the one before, so a winner of rank w costs about log2(w)
    batches, up to a batch whose Frobenius matrices fill 2^19 bytes: 2^16 /
    k^2 rows of 8-byte entries (float64, int64 or object) and 2^17 / k^2 of
    float32.
    """
    dtype = _block_dtype(p, k)
    powers = _root_powers(p, k, dtype) if p <= _ROOT_FILTER_P else None
    m, span = _block_digits(p, k)
    # each row's step past the chunk's first prefix, then its tail
    low = np.arange(span * p**m)[:, None] // p ** np.arange(m, -1, -1) % p
    prefix = [1] + [0] * (k - 1 - m)
    block = np.empty((len(low), k + 1), dtype=dtype)
    block[:, k - m : k] = low[:, 1:]
    block[:, k] = 1
    cap = max(1, (1 << 19) // (k * k * block.itemsize))
    size, pending = 0, block[:0]
    while prefix[0] < p:
        stop = min(prefix[-1] + span, p)
        chunk = block[: (stop - prefix[-1]) * p**m]
        chunk[:, : k - m] = prefix
        if span > 1:
            chunk[:, k - m - 1] += low[: len(chunk), 0]
        rows = chunk if powers is None else chunk[_root_free(chunk, p, powers)]
        if k <= 3 and powers is not None and len(rows):
            return tuple(int(c) for c in rows[0]), None
        pending = np.concatenate((pending, rows))
        size = size or min(len(pending), _FIRST_BATCH, cap)
        while size and len(pending) >= size:
            found = _first_irreducible(pending[:size], p)
            if found is not None:
                i, frob_rows = found
                return tuple(int(c) for c in pending[i]), frob_rows
            pending, size = pending[size:], min(2 * size, cap)
        prefix[-1] = stop - 1
        j = len(prefix) - 1
        while j and prefix[j] == p - 1:
            prefix[j] = 0
            j -= 1
        prefix[j] += 1
    found = _first_irreducible(pending, p) if len(pending) else None
    if found is None:
        raise InvariantViolation(f"no monic irreducible of degree {k} over F_{p} found")
    i, frob_rows = found
    return tuple(int(c) for c in pending[i]), frob_rows


def _norm(x: FieldElement) -> int:
    """N(x) = x^((q-1)/(p-1)) in F_p, read as the resultant Res(f, x).

    Write x = x^s h with h(0) != 0.  The norm is multiplicative, so
    N(x) = N(x)^s Res(f, h), where N(x) = (-1)^k f(0) is the product of the
    roots of f.  The Euclidean steps of Res(f, h) cost O(k deg h), so the
    candidates of find_generator, whose low coefficients are zero, cost
    O(k) rather than O(k^2).
    """
    f, coeffs = x.field, x.coeffs
    s = next((i for i, c in enumerate(coeffs) if c), 0)
    norm_x = (-1) ** f.k * f.modulus[0]
    return pow(norm_x, s, f.p) * _resultant(list(f.modulus), list(coeffs[s:]), f.p) % f.p


def find_generator(f: FieldDescriptor) -> FieldElement:
    """Least element (coefficient-lex enumeration order) of order q - 1.

    x has order q - 1 when x^((q-1)/r) != 1 for every prime r | q - 1.  For
    r | p - 1 that power is N(x)^((p-1)/r), read off the norm in F_p.  For
    the other r, with d = ord_r(p) (a divisor of k), it is
    N_d(x)^((p^d-1)/r), where N_d(x) = prod_{j < k/d} x^(p^(dj)) is the norm
    to F_{p^d}; primes with the same d share N_d, and for d = k it is x
    itself.  The norms form a tower down the subfield lattice: by the
    transitivity of the norm, N_d(x) is the product of N_D(x) over the
    powers of sigma^d, sigma the Frobenius, with D the least tested degree
    above d that d divides (or k), an Itoh-Tsujii chain of about log2(D/d)
    products and D - d Frobenius steps (_PolyRing.frobenius_product).  The
    degrees are tested in rising order, and a test forms the norms on its
    way down from x that no earlier test formed.  For composite d,
    with e its largest proper divisor, r does not divide p^e - 1 (d is the
    least degree with r | p^d - 1), so (p^d - 1)/r = (p^e - 1) m_r.  The
    primes of degree d share u = N_d(x)^(p^e - 1), the product of
    N_d(x)^(p-1) over its first e conjugates (_PolyRing.frobenius_product),
    and each tests u^(m_r), whose exponent has d - e base-p digits; one
    pow_pary call raises u to every m_r of its degree from one table of
    digit powers.  Prime d tests N_d(x)^((p^d-1)/r) itself, where e = 1
    would save one digit at the cost of N_d(x)^(p-1).

    The candidates j = 1, ..., p-1 are c * x^(k-1) with c in F_p^*.  Neither
    the tests of the second kind nor the norm tests with r | k see c, so
    when one of them fails, none of those candidates has order q - 1 and
    the search goes on at j = p; otherwise it would take O(p) steps.

    The winner g has passed every test, so every g^((q-1)/r) has been
    formed; they are kept in f._zeta_cache[r], where induce takes its zeta
    of prime order t.
    """
    if f._gen is not None:
        return f._gen
    p, k, ring = f.p, f.k, f.ring
    primes = sorted(f.q1_factors())
    # (prime, exponent, blind to a scalar factor) of each norm test
    norm_tests = [(r, (p - 1) // r, k % r == 0) for r in primes if (p - 1) % r == 0]
    by_degree: dict[int, list[int]] = {}
    degrees = divisors(k)
    for r in primes:
        if (p - 1) % r:
            d = next(d for d in degrees if pow(p, d, r) == 1)
            by_degree.setdefault(d, []).append(r)
    # (d, steps, e, primes, exponents of the shared power) for each degree d
    # in rising order: steps are the (c, D) whose N_c the test of d forms
    # first, from the top down, D the least degree above c among the tested
    # ones and k that c divides; e is the largest proper divisor of d, and 1
    # for prime d, where the shared power is N_d
    subfield_tests, formed = [], {k}
    for d in sorted(by_degree):
        steps, c = [], d
        while c not in formed:
            top = min(D for D in [*by_degree, k] if D > c and D % c == 0)
            steps.append((c, top))
            formed.add(c)
            c = top
        e = max(e for e in degrees if e < d and d % e == 0)
        shared = p**e - 1 if e > 1 else 1
        exps = [(p**d - 1) // (r * shared) for r in by_degree[d]]
        subfield_tests.append((d, steps[::-1], e, by_degree[d], exps))
    one = f.one.coeffs

    def failed_test(x: FieldElement, powers: dict) -> bool | None:
        """None when x has order q - 1, else whether the first test that x
        fails is blind to a scalar factor.  Each test that x passes leaves
        powers[r] = x^((q-1)/r)."""
        if norm_tests:
            norm = _norm(x)
            for r, e, blind in norm_tests:
                power = pow(norm, e, p)
                if power == 1:
                    return blind
                powers[r] = f.element(power)
        if not subfield_tests:
            return None
        norms = {k: x._as_arr()}
        for d, steps, e, rs, exps in subfield_tests:
            for c, top in steps:
                norms[c] = ring.frobenius_product(norms[top], top // c, c)
            u = norms[d]
            if e > 1:
                u = ring.frobenius_product(ring.pow_arr(u, p - 1), e)
            for r, arr in zip(rs, ring.pow_pary(u, exps)):
                power = _from_arr(f, arr)
                if power.coeffs == one:
                    return True
                powers[r] = power
        return None

    j = 1
    while j < f.q:
        x = f.element_at(j)
        powers = {}
        blind = failed_test(x, powers)
        if blind is None:
            f._zeta_cache.update(powers)
            f._gen = x
            return x
        j = p if blind and j < p else j + 1
    raise InvariantViolation(f"no element of order q - 1 in {f}")


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
    """Euler's criterion on the unit group; zero is rejected.  On an
    extension field x^((q-1)/2) = N(x)^((p-1)/2), the Legendre symbol of
    the norm."""
    if x.is_zero():
        raise ZeroElement("square class of zero is undefined")
    f = x.field
    if f.p == 2:
        return True
    if f.k == 1:
        return x ** ((f.q - 1) // 2) == f.one
    return pow(_norm(x), (f.p - 1) // 2, f.p) == 1


def sqrt(x: FieldElement) -> FieldElement:
    """Deterministic square root of a square (Tonelli-Shanks, canonical choice).

    In characteristic 2 squaring is the Frobenius, and its inverse is
    x -> x^(q/2).
    """
    f = x.field
    if x.is_zero():
        return f.zero
    if not is_square(x):
        raise ZeroElement(f"{x!r} is not a square")
    q = f.q
    if f.p == 2:
        return x ** (q // 2)
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
