"""Integer-side number theory: primality, multiplicative orders, factoring,
admissible prime-pair search and the hypothesis audit.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import BadBounds, BadInput, InvariantViolation, NotCoprime, TooLarge

# The first twelve prime bases for Miller-Rabin.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to
# every base in _MR_WITNESSES (OEIS A014233); from it on is_prime adds a
# strong Lucas test.
_PSI_12 = 318665857834031151167461

# psi_j for j = 1, ..., 12 (OEIS A014233; Jaeschke, Math. Comp. 61, 1993):
# the least strong pseudoprime to the first j bases, so those j bases
# decide every m < psi_j.
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, _PSI_12,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)

# 59 is the next prime: below 59^2, no factor in _SMALL_PRIMES means prime.
_SMALL_PRIME_BOUND = 59 * 59

# factorize trial-divides by the primes below this bound, in blocks of
# _TRIAL_BLOCK primes that each take one gcd with the block's product.
_TRIAL_LIMIT = 100_000
_TRIAL_BLOCK = 256

# Squarings mod n that the rho runs of one factorize call may spend in all.
_RHO_BUDGET = 5_000_000

# Largest bound search_pairs sieves to: a bytearray of about 100 MB.
_SIEVE_LIMIT = 10**8


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 3 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie & Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(v):
        return (v + n if v % 2 else v) // 2

    # U_1, V_1, Q^1, walked to index d: U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k,
    # U_k+1 = (P U_k + V_k)/2 and V_k+1 = (D U_k + P V_k)/2 with P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(m: int) -> bool:
    """Trial division by _SMALL_PRIMES as one gcd with their product, which
    decides every m below 59^2: a common factor leaves m prime only when m
    is one of them.  Above that Miller-Rabin to the first j bases of
    _MR_WITNESSES for the least j with m < psi_j (two below 1,373,653,
    three below 25,326,001, ...), exact for every m below _PSI_12 (3.2e23);
    from there on all twelve bases and a strong Lucas test, which with the
    base-2 test makes the Baillie-PSW test (no composite is known to pass
    it)."""
    if m < 0:
        raise BadInput(f"is_prime expects a non-negative integer, got {m}")
    if m < 2:
        return False
    if gcd(m, _SMALL_PRODUCT) > 1:
        return m in _SMALL_PRIMES
    if m < _SMALL_PRIME_BOUND:
        return True
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # past _PSI_12 the slice holds all twelve bases
    for a in _MR_WITNESSES[: bisect_right(_PSI, m) + 1]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return m < _PSI_12 or _strong_lucas(m)


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic: the polynomial increments c = 1, 2, ... are tried in order.
    Returns (factor, budget left), where budget counts the squarings mod n
    still allowed; raises TooLarge when they run out.
    """
    if n % 2 == 0:
        return 2, budget
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        m = 128
        while g == 1:
            budget -= r
            if budget < 0:
                raise TooLarge(f"factoring {n} needs more than {_RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            budget -= min(k, r)
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                budget -= 1
        if g != n:
            return g, budget
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@lru_cache(maxsize=None)
def _trial_blocks() -> list[tuple[int, array]]:
    """The primes below _TRIAL_LIMIT in ascending blocks of _TRIAL_BLOCK,
    each with its product; built on first use, in machine-word arrays."""
    mark = _prime_mark(_TRIAL_LIMIT - 1)
    primes = array("l", compress(range(_TRIAL_LIMIT), mark))
    blocks = [primes[i : i + _TRIAL_BLOCK] for i in range(0, len(primes), _TRIAL_BLOCK)]
    return [(prod(block), block) for block in blocks]


def _trial_division(m: int) -> tuple[dict[int, int], int]:
    """(the prime factors of m below _TRIAL_LIMIT, the cofactor m leaves).

    The primes are taken a block at a time: one gcd with the block's
    product, then divisions by the primes of the gcd alone.  The scan stops
    once the square of the next block's least prime exceeds the cofactor,
    which is then 1 or prime.
    """
    out: dict[int, int] = {}
    for block, primes in _trial_blocks():
        if primes[0] * primes[0] > m:
            break
        g = gcd(m, block)
        # g is squarefree: each prime that divides it leaves it once
        for p in primes:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                while m % p == 0:
                    out[p] = out.get(p, 0) + 1
                    m //= p
    return out, m


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 as {prime: exponent}.

    Trial division by the primes below _TRIAL_LIMIT comes first; Brent's
    rho splits a composite cofactor.  All rho runs of one call share
    _RHO_BUDGET squarings; past it the call raises TooLarge, so no input
    hangs and the outcome does not depend on the machine.
    """
    if m < 1:
        raise BadInput(f"cannot factor {m}")
    out, m = _trial_division(m)
    stack = [m] if m > 1 else []
    budget = _RHO_BUDGET
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        # perfect-power check keeps rho off squares
        for e in range(2, n.bit_length()):
            r = round(n ** (1.0 / e))
            for cand in (r - 1, r, r + 1):
                if cand > 1 and cand ** e == n:
                    for _ in range(e):
                        stack.append(cand)
                    break
            else:
                continue
            break
        else:
            d, budget = _brent_rho(n, budget)
            stack.append(d)
            stack.append(n // d)
    return out


def divisors(m: int) -> list[int]:
    ds = [1]
    for p, e in factorize(m).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def mult_order_mod(a: int, m: int) -> int:
    """Least e >= 1 with a^e = 1 mod m."""
    if m < 2:
        raise BadInput(f"modulus must be >= 2, got {m}")
    a %= m
    if gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not a unit mod {m}")
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    order = phi
    for p in factorize(phi):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def example21_check(n: int, p: int, t: int) -> bool:
    """t divides p^(n/2)+1 while dividing none of the p^(n/q)-1 for primes q | n."""
    if n < 2 or n % 2 != 0:
        raise BadInput(f"n must be even and >= 2, got {n}")
    if not is_prime(p):
        raise BadInput(f"p must be prime, got {p}")
    if t < 1:
        raise BadInput(f"t must be positive, got {t}")
    if (t * n) % p == 0:
        raise BadInput(f"p = {p} must not divide t*n")
    if (pow(p, n // 2, t) + 1) % t:
        return False
    return all((pow(p, n // q, t) - 1) % t for q in factorize(n))


@lru_cache(maxsize=64)
def _prime_divisors(m: int) -> tuple[int, ...]:
    """The primes of m in ascending order; PairCandidate asks for the same
    few dimensions n over and over."""
    return tuple(sorted(factorize(m)))


def has_mult_order(a: int, n: int, m: int) -> bool:
    """a has multiplicative order exactly n mod m >= 2: a^n = 1 and
    a^(n/q) != 1 mod m for every prime q | n (Lagrange).  It factors only n,
    where mult_order_mod factors m and phi(m); a not coprime to m gives False."""
    return pow(a, n, m) == 1 and all(pow(a, n // q, m) != 1 for q in _prime_divisors(n))


# is_prime of a candidate's t: search_pairs builds its pairs sorted by
# (t, p), so each t is tested once and then read from here.
_t_is_prime = lru_cache(maxsize=256)(is_prime)


@dataclass(frozen=True, init=False, slots=True)
class PairCandidate:
    """A candidate (p, t) for building a character of order t at p in dimension n.

    The flags are recomputed from (n, p, t, ell) at construction time and never
    accepted from outside: the constructor takes no flags argument.  n must
    be even and >= 2, as in search_pairs; any other n raises BadInput.
    """

    n: int
    p: int
    t: int
    ell: int | None = None
    flags: dict[str, bool] = field(init=False, compare=False)

    def __init__(self, n: int, p: int, t: int, ell: int | None = None):
        if n < 2 or n % 2:
            raise BadInput(f"n must be even and >= 2, got {n}")
        t_prime = _t_is_prime(t)
        p_prime = is_prime(p)
        # p^(n/q) mod t for each prime q | n, read once for both flags; a
        # leak is one of them at 1 (at 0 when t = 1)
        below = [pow(p, n // q, t) for q in _prime_divisors(n)]
        leak = 1 % t in below
        flags = {
            "t_prime": t_prime,
            "p_prime": p_prime,
            "t_cong_1_mod_n": t % n == 1,
            "p_gt_n": p > n,
            # ord_t(p) = n exactly when p^n = 1 and no p^(n/q) = 1 for a
            # prime q | n; p^n = 1 mod the prime t also rules out t | p
            "ord_p_mod_t_is_n": t_prime and p_prime and not leak and pow(p, n, t) == 1,
            "no_subfield_leak": not leak,
        }
        if ell is not None:
            flags["p_gt_ell"] = p > ell
            flags["t_gt_ell"] = t > ell
        # frozen: each slot's own setter fills its field, past the generated
        # __setattr__
        _set_n(self, n)
        _set_p(self, p)
        _set_t(self, t)
        _set_ell(self, ell)
        _set_flags(self, flags)
        if all(flags.values()):
            # forced: ord_t(p) = n even means p^(n/2) = -1 mod t; below[0]
            # is p^(n/2), 2 being the least prime of n
            if (below[0] + 1) % t:
                raise InvariantViolation(
                    f"pair ({p}, {t}) passed all flags but t does not divide p^(n/2)+1"
                )

    def all_hold(self) -> bool:
        return all(self.flags.values())

    def to_json(self) -> dict:
        out = {"n": self.n, "p": self.p, "t": self.t, "flags": dict(self.flags)}
        if self.ell is not None:
            out["ell"] = self.ell
        return out


# the setters of PairCandidate's slots, which its __init__ calls
_set_n, _set_p, _set_t, _set_ell, _set_flags = (
    getattr(PairCandidate, f).__set__ for f in ("n", "p", "t", "ell", "flags")
)


def _prime_mark(limit: int) -> bytearray:
    """mark[m] == 1 exactly when m <= limit is prime (sieve of Eratosthenes)."""
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if mark[i]:
            mark[i * i :: i] = bytearray(len(mark[i * i :: i]))
    return mark


def _order_n_residues(n: int, t: int, n_primes) -> list[int]:
    """The phi(n) residues of order exactly n mod the prime t = 1 mod n."""
    for x in range(2, t):
        y = pow(x, (t - 1) // n, t)
        if all(pow(y, n // q, t) != 1 for q in n_primes):
            return [pow(y, k, t) for k in range(1, n) if gcd(k, n) == 1]
    raise InvariantViolation(f"no residue of order {n} mod {t}")


def search_pairs(
    n: int, ell: int, p_max: int, t_max: int, jobs: int = 1
) -> list[PairCandidate]:
    """All prime pairs (p, t) in range with t = 1 mod n, ord_t(p) = n, p > max(n, ell), t > ell.

    For each prime t the search walks p through the phi(n) residue classes of
    order n mod t, so it never computes an order; every returned pair then
    recomputes its flags, ord_t(p) included, through PairCandidate.  Output
    is sorted by (t, p).  jobs is accepted for interface stability and
    unused: the search runs in the calling process.  Bounds above
    _SIEVE_LIMIT raise TooLarge before anything is allocated.
    """
    if n < 2 or n % 2 != 0:
        raise BadBounds(f"n must be even and >= 2, got {n}")
    if ell < 3 or ell % 2 == 0 or not is_prime(ell):
        raise BadBounds(f"ell must be an odd prime, got {ell}")
    if p_max < n or t_max < n:
        raise BadBounds(f"bounds must be >= n, got p_max={p_max}, t_max={t_max}")
    if max(p_max, t_max) > _SIEVE_LIMIT:
        raise TooLarge(f"bounds above {_SIEVE_LIMIT} would need a sieve that large")
    prime = _prime_mark(max(p_max, t_max))
    n_primes = list(factorize(n))
    p_min = max(n, ell)
    found = []
    for t in range(n + 1, t_max + 1, n):
        if not prime[t] or t <= ell:
            continue
        for r in _order_n_residues(n, t, n_primes):
            found.extend((t, p) for p in range(r, p_max + 1, t) if prime[p] and p > p_min)
    out = [PairCandidate(n, p, t, ell) for (t, p) in sorted(found)]
    for cand in out:
        if not cand.all_hold():
            raise InvariantViolation(f"search invariant broken for {cand}")
    return out


CHECKED_TRUE = "CHECKED_TRUE"
CHECKED_FALSE = "CHECKED_FALSE"
NOT_EFFECTIVELY_CHECKABLE = "NOT_EFFECTIVELY_CHECKABLE"


def audit_adz(
    n: int, ell: int, p: int, t: int, d_bound: int | None = None
) -> list[dict[str, str]]:
    """Audit the large-image hypotheses for (n, ell, p, t).

    Each entry is {"condition": ..., "status": ...}.  The complete-splitting
    condition and the comparisons against the two ineffective constants are
    reported as NOT_EFFECTIVELY_CHECKABLE, never guessed.
    """
    if min(n, ell, p, t) < 1:
        raise BadInput("audit inputs must be positive")

    def status(ok: bool) -> str:
        return CHECKED_TRUE if ok else CHECKED_FALSE

    report = [
        {"condition": "t == 1 mod n", "status": status(t % n == 1)},
        {"condition": "ord_t(p) == n", "status": status(t >= 2 and has_mult_order(p, n, t))},
        {"condition": "t > ell", "status": status(t > ell)},
        {"condition": "p > ell", "status": status(p > ell)},
        {
            "condition": "p splits completely in K",
            "status": NOT_EFFECTIVELY_CHECKABLE,
        },
        {
            "condition": "t > max(d(n)+1, t(n), ell)",
            "status": NOT_EFFECTIVELY_CHECKABLE,
        },
    ]
    if d_bound is not None:
        report.append(
            {"condition": f"t > d_bound+1 = {d_bound + 1}", "status": status(t > d_bound + 1)}
        )
    return report


@lru_cache(maxsize=None)
def _mobius(m: int) -> int:
    mu = 1
    for _, e in factorize(m).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def cyclotomic_value(d: int, x: int) -> int:
    """Phi_d(x) for integer x >= 2, via the Mobius product over x^e - 1."""
    num = 1
    den = 1
    for e in divisors(d):
        mu = _mobius(d // e)
        if mu == 1:
            num *= x**e - 1
        elif mu == -1:
            den *= x**e - 1
    if num % den:
        raise InvariantViolation(f"Phi_{d}({x}): Mobius product {num}/{den} is not an integer")
    return num // den
