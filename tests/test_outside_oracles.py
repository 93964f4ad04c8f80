"""The library against sympy, an implementation written by other hands.

sympy is in the test extra and imported plainly: a missing sympy fails the
run instead of skipping it.  sympy never enters src/tamerep.
"""

import random
from itertools import product, takewhile
from math import gcd, isqrt, prod

import sympy
from sympy.ntheory.primetest import mr
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod

from tamerep import arith, ff
from tamerep.arith import is_prime
from tamerep.ff import find_generator, make_field
from test_ff import SETUP_PINNED_FIELDS

# The witness tiers of arith.is_prime from 59^2 on (below it trial division
# decides, and test_arith checks every m): the first j bases below psi_j,
# then all twelve bases and the strong Lucas test from psi_12 on, sampled
# up to 2^100.
_TIER_BOUNDS = sorted({59 * 59, *arith._PSI[1:], 2**100})
_SMALL_PRODUCT = prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))


def _tier_sample(rng, lo, hi, count):
    """count odd m in [lo, hi) with no prime factor up to 53, so each one
    reaches Miller-Rabin; about one in ten of them is prime near 10^6, and
    one in fifty near 2^100."""
    out = []
    while len(out) < count:
        m = rng.randrange(lo, hi) | 1
        if m < hi and gcd(m, _SMALL_PRODUCT) == 1:
            out.append(m)
    return out


def _semiprimes(rng, lo, hi, count):
    """count products p * q in [lo, hi) of two primes in [sqrt(lo), sqrt(hi)),
    the composites with no factor up to 53 that trial division cannot see."""
    out = []
    while len(out) < count:
        p, q = (sympy.nextprime(rng.randrange(isqrt(lo), isqrt(hi))) for _ in range(2))
        if lo <= p * q < hi:
            out.append(p * q)
    return out


def test_a014233_table_matches_sympy_pseudoprimes():
    # each psi_j is composite and a strong probable prime to the first j bases
    for j, psi in enumerate(arith._PSI, 1):
        assert not sympy.isprime(psi), psi
        assert mr(psi, arith._MR_WITNESSES[:j]), j


def test_is_prime_vs_sympy_per_witness_tier():
    rng = random.Random(20261020)
    for lo, hi in zip(_TIER_BOUNDS, _TIER_BOUNDS[1:]):
        sample = _tier_sample(rng, lo, hi, 600) + _semiprimes(rng, lo, hi, 40)
        primes = [m for m in sample if sympy.isprime(m)]
        assert len(primes) >= 10, (lo, hi)
        assert [m for m in sample if is_prime(m)] == primes, (lo, hi)


def test_is_prime_vs_sympy_beside_each_psi():
    for psi in arith._PSI:
        for m in range(psi - 2, psi + 3):
            assert is_prime(m) == sympy.isprime(m), m


def test_q1_factors_vs_sympy_on_pinned_fields():
    # the cyclotomic splitting of q - 1 that find_generator and the zeta
    # cache read: every factor prime, and the product q - 1
    for p, k in dict.fromkeys(SETUP_PINNED_FIELDS):
        f = make_field(p, k)
        factors = f.q1_factors()
        assert all(sympy.isprime(r) for r in factors), (p, k)
        assert prod(r**e for r, e in factors.items()) == f.q - 1, (p, k)


def test_factorize_vs_factorint():
    for m in range(2, 3001):
        assert arith.factorize(m) == sympy.factorint(m), m
    for k in range(1, 60):
        m = 3**k - 1
        assert arith.factorize(m) == sympy.factorint(m), k


def test_cyclotomic_value_vs_cyclotomic_poly():
    for d in range(1, 121):
        for x in (2, 3, 5, 13):
            assert arith.cyclotomic_value(d, x) == sympy.cyclotomic_poly(d, x), (d, x)


def test_search_pairs_vs_n_order_brute_force():
    # every prime pair with ord_t(p) = n exactly, p > max(n, ell) and
    # t > ell, which forces t = 1 mod n; sympy's primes and orders only
    p_max, t_max = 2000, 400
    orders = {
        (t, p): sympy.n_order(p, t)
        for t in sympy.primerange(t_max + 1)
        for p in sympy.primerange(p_max + 1)
        if p != t
    }
    for n in (2, 4, 8):
        for ell in (3, 5, 13):
            want = sorted(
                tp for tp, o in orders.items() if o == n and tp[0] > ell and tp[1] > max(n, ell)
            )
            got = [(c.t, c.p) for c in arith.search_pairs(n, ell, p_max, t_max)]
            assert got == want, (n, ell)
            assert want, (n, ell)


def _gf(coeffs):
    """A low-degree-first coefficient tuple as sympy's dense list, high
    degree first and without leading zeros."""
    out = [ZZ(c) for c in reversed(coeffs)]
    while out and not out[0]:
        out.pop(0)
    return out


# The pinned fields small enough to enumerate every earlier candidate.
_SMALL_PINNED = [(p, k) for p, k in dict.fromkeys(SETUP_PINNED_FIELDS) if p**k <= 10**5]


def test_pinned_moduli_irreducible_per_sympy():
    for p, k in dict.fromkeys(SETUP_PINNED_FIELDS):
        modulus = make_field(p, k).modulus
        assert len(modulus) == k + 1 and modulus[-1] == 1, (p, k)
        assert gf_irreducible_p(_gf(modulus), p, ZZ), (p, k)


def test_pinned_moduli_lex_least_per_sympy():
    # every monic candidate of degree k before the modulus, comparing
    # coefficient tuples low degree first, is reducible: those with a zero
    # constant term are multiples of x, and sympy rejects each other one
    assert len(_SMALL_PINNED) == 11
    for p, k in _SMALL_PINNED:
        modulus = make_field(p, k).modulus
        assert modulus[0], (p, k)
        candidates = (low + (1,) for low in product(range(1, p), *[range(p)] * (k - 1)))
        for coeffs in takewhile(lambda c: c != modulus, candidates):
            assert not gf_irreducible_p(_gf(coeffs), p, ZZ), (p, k, coeffs)


def test_pinned_generators_primitive_per_sympy():
    # g^((q-1)/r) != 1 in sympy's F_p[x]/(f) for every prime r | q - 1,
    # with the primes from factorint
    for p, k in _SMALL_PINNED:
        f = make_field(p, k)
        g, modulus = _gf(find_generator(f).coeffs), _gf(f.modulus)
        for r in sympy.factorint(f.q - 1):
            assert gf_pow_mod(g, (f.q - 1) // r, modulus, p, ZZ) != [ZZ(1)], (p, k, r)
    # and on a prime field, where g is an integer mod p
    assert sympy.n_order(find_generator(make_field(13, 1)).coeffs[0], 13) == 12


def test_tower_generators_and_zetas_per_sympy():
    # the sweep's heaviest generator searches, each on a fresh descriptor:
    # g has order q - 1 in sympy's F_p[x]/(f), with the primes from
    # factorint, and every g^((q-1)/r) that the subfield norms and the
    # shared digit tables left in the zeta cache is sympy's power
    for p, k in [(5, 36), (13, 40), (5, 52)]:
        f = ff.FieldDescriptor(p, k, make_field(p, k).modulus)
        g, modulus, one = _gf(find_generator(f).coeffs), _gf(f.modulus), [ZZ(1)]
        assert gf_pow_mod(g, f.q - 1, modulus, p, ZZ) == one, (p, k)
        primes = sympy.factorint(f.q - 1)
        assert sorted(f._zeta_cache) == sorted(primes), (p, k)
        for r in primes:
            zeta = gf_pow_mod(g, (f.q - 1) // r, modulus, p, ZZ)
            assert zeta != one, (p, k, r)
            assert _gf(f._zeta_cache[r].coeffs) == zeta, (p, k, r)
