import dataclasses
import random
import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tamerep import arith
from tamerep.arith import (
    PairCandidate,
    audit_adz,
    cyclotomic_value,
    divisors,
    example21_check,
    factorize,
    has_mult_order,
    is_prime,
    mult_order_mod,
    search_pairs,
)
from tamerep.errors import BadBounds, BadInput, NotCoprime, TooLarge
from test_ff import CERT_FIELDS, SWEEP_FIELDS, assert_invariant_violation_within_a_second


def _trial_division_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert is_prime(17)
    assert not is_prime(1)
    # Carmichael number: 561 = 3 * 11 * 17
    assert not is_prime(561)


def test_is_prime_vs_trial_division():
    for m in range(0, 5000):
        assert is_prime(m) == _trial_division_prime(m), m


def test_is_prime_rejects_negative():
    with pytest.raises(BadInput):
        is_prime(-3)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


# OEIS A014233: psi_k, the least strong pseudoprime to each of the first k
# prime bases, for k = 1, ..., 13
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def _sieve(limit):
    mark = [True] * limit
    mark[0] = mark[1] = False
    for i in range(2, isqrt(limit - 1) + 1):
        if mark[i]:
            for j in range(i * i, limit, i):
                mark[j] = False
    return mark


def test_is_prime_rejects_psi_12():
    # the least strong pseudoprime to all twelve Miller-Rabin bases; the
    # strong Lucas test takes over from it on
    assert PSI_12 == arith._PSI_12 == A014233[11]
    assert all(oracles.strong_probable_prime(PSI_12, a) for a in arith._MR_WITNESSES)
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_is_prime_rejects_psi_13():
    # the least strong pseudoprime to the bases up to 41, above psi_12
    assert PSI_13 == A014233[12]
    assert all(oracles.strong_probable_prime(PSI_13, a) for a in arith._MR_WITNESSES + (41,))
    assert not is_prime(PSI_13)
    assert is_prime(2575672364521) and is_prime(1287836182261)
    assert factorize(PSI_13) == {1287836182261: 1, 2575672364521: 1}
    assert is_prime(2**127 - 1) and is_prime(2**521 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_a014233_values_pass_their_bases():
    # psi_k passes the first k bases, so the test's table is no larger than
    # A014233; is_prime picks its bases by the first twelve
    assert arith._PSI == A014233[:12]
    for k, psi in enumerate(A014233, 1):
        assert all(oracles.strong_probable_prime(psi, a) for a in arith._MR_WITNESSES[:k]), k


def test_is_prime_vs_sieve():
    mark = _sieve(10**6)
    for m in range(10**6):
        assert is_prime(m) == mark[m], m


def test_is_prime_vs_all_bases_oracle_dense():
    # every m below 10^5, across the gcd with the small primes' product,
    # the 59^2 bound and the Miller-Rabin range
    for m in range(10**5):
        assert is_prime(m) == oracles.is_prime_all_bases(m), m


def test_is_prime_rejects_a014233():
    for psi in A014233:
        assert not is_prime(psi), psi
        for q in (3, 5, 53, 59, 61, 101):
            assert not is_prime(q * psi), (q, psi)


def test_is_prime_accepts_primes_beside_bounds():
    # the nearest primes below and above 59^2 and each psi_k, found with
    # the all-bases oracle; every m in a window around each bound agrees
    for bound in (59 * 59,) + A014233:
        window = range(bound - 400, bound + 400)
        primes = [m for m in window if oracles.is_prime_all_bases(m)]
        below = max(m for m in primes if m < bound)
        above = min(m for m in primes if m > bound)
        assert is_prime(below) and is_prime(above), bound
        assert [m for m in window if is_prime(m)] == primes, bound


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**80 - 1))
def test_is_prime_vs_all_bases_oracle(m):
    assert is_prime(m) == oracles.is_prime_all_bases(m)


def test_strong_lucas_pseudoprimes():
    # the odd composites below 60000 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255), and no prime fails it
    odd = range(5, 60000, 2)
    primes = {m for m in odd if _trial_division_prime(m)}
    passing = [m for m in odd if arith._strong_lucas(m)]
    assert [m for m in passing if m not in primes] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    ]
    assert primes <= set(passing)


def test_factorize_roundtrip():
    for m in [2, 12, 360, 2**20 - 1, 3**12 - 1, 561, 97]:
        fac = factorize(m)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == m


def test_factorize_rho_budget():
    # 3^128 + 1 = Phi_256(3), which F_3^256 needs; its large cofactor is out
    # of rho's reach, so the shared budget ends the call instead of a hang
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        factorize(3**128 + 1)
    assert time.perf_counter() - start < 30


def _factorize_outcome(m, rho_inputs):
    try:
        return list(factorize(m).items()), rho_inputs[:]
    except TooLarge:
        return "TooLarge", rho_inputs[:]


def test_trial_division_vs_oracle(monkeypatch):
    # the same factors, in the same order, and the same numbers handed to
    # rho as with the prime-by-prime loop
    values = [cyclotomic_value(d, p) for p, k in SWEEP_FIELDS + CERT_FIELDS for d in divisors(k)]
    values += [99991 * 100003, 99989 * 99991, 100003 * 100019, 99991**2, 99991**2 * 99989,
               100003**2, 313**2, 317**2, 313 * 317, 307**3 * 311, 2 * 313 * 99991 * 100003]
    rng = random.Random(14)
    values += [rng.randrange(1, 2**80) for _ in range(60)]
    rho_inputs = []
    rho = arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho", lambda n, b: rho_inputs.append(n) or rho(n, b))
    got = []
    for m in values:
        rho_inputs.clear()
        got.append(_factorize_outcome(m, rho_inputs))
    monkeypatch.setattr(arith, "_trial_division", oracles.trial_division)
    for m, outcome in zip(values, got):
        rho_inputs.clear()
        assert outcome == _factorize_outcome(m, rho_inputs), m
    assert any(inputs for _, inputs in got)


def test_cyclotomic_product():
    for ell, k in [(13, 8), (3, 12), (5, 6)]:
        prod = 1
        for d in divisors(k):
            prod *= cyclotomic_value(d, ell)
        assert prod == ell**k - 1


def test_mult_order_examples():
    assert mult_order_mod(19, 17) == 8
    assert mult_order_mod(1, 17) == 1
    assert mult_order_mod(13, 17) == 4


def test_mult_order_not_coprime():
    with pytest.raises(NotCoprime):
        mult_order_mod(34, 17)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 500), st.integers(2, 500))
def test_mult_order_divides_group_order(a, m):
    from math import gcd

    if gcd(a, m) != 1:
        return
    e = mult_order_mod(a, m)
    assert pow(a, e, m) == 1
    for smaller in range(1, min(e, 50)):
        assert pow(a, smaller, m) != 1 or smaller == e
    if is_prime(m):
        assert (m - 1) % e == 0


def test_example21_cases():
    # 17 | 19^4 + 1 and 17 does not divide 19^4 - 1
    assert example21_check(8, 19, 17)
    # 3 | 19 - 1 so 3 | 19^4 - 1
    assert not example21_check(8, 19, 3)
    assert example21_check(2, 5, 3)
    # the big-integer formula, t = 1 included
    for n in (2, 4, 6, 8, 10, 12):
        for p in (3, 5, 7, 11, 13):
            for t in range(1, 120):
                if (t * n) % p == 0:
                    continue
                want = (p ** (n // 2) + 1) % t == 0 and all(
                    (p ** (n // q) - 1) % t != 0 for q in factorize(n)
                )
                assert example21_check(n, p, t) == want, (n, p, t)


def test_has_mult_order_vs_mult_order_mod():
    for m in range(2, 90):
        for a in range(0, 2 * m):
            orders = {n for n in range(1, 2 * m) if has_mult_order(a, n, m)}
            if gcd(a, m) != 1:
                assert orders == set(), (a, m)
            else:
                assert orders == {mult_order_mod(a, m)}, (a, m)


def test_example21_bad_input():
    with pytest.raises(BadInput):
        example21_check(7, 19, 17)
    with pytest.raises(BadInput):
        example21_check(8, 20, 17)
    with pytest.raises(BadInput):
        example21_check(8, 19, 19)


def _brute_force_pairs(n, ell, p_max, t_max):
    out = []
    for t in range(2, t_max + 1):
        if not _trial_division_prime(t) or t % n != 1 or t <= ell:
            continue
        for p in range(2, p_max + 1):
            if not _trial_division_prime(p) or p <= n or p <= ell or p == t:
                continue
            x, e = p % t, 1
            while x != 1:
                x = x * p % t
                e += 1
            if e == n:
                out.append((t, p))
    return sorted(out)


def test_search_pairs_example():
    found = search_pairs(8, 3, 60, 20)
    got = [(c.p, c.t) for c in found]
    assert (19, 17) in got
    assert (59, 17) in got
    assert got == sorted(got, key=lambda pt: (pt[1], pt[0]))


def test_search_pairs_starts_no_process(monkeypatch):
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("search_pairs started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    found = search_pairs(2, 3, 200, 200, jobs=10_000)
    assert found == search_pairs(2, 3, 200, 200, jobs=1)


def test_search_pairs_empty_range():
    assert search_pairs(8, 3, 10, 20) == []


def test_search_pairs_vs_brute_force():
    # n = 6, 10 and 12 have an odd prime factor, so a residue of order n/q
    # for odd q must not pass as one of order n
    cases = [
        (8, 3, 100, 100), (2, 5, 80, 60), (4, 3, 90, 70), (6, 5, 400, 300),
        (10, 3, 300, 250), (12, 7, 500, 400), (16, 3, 300, 200), (2, 3, 10, 10),
    ]
    for n, ell, p_max, t_max in cases:
        found = [(c.t, c.p) for c in search_pairs(n, ell, p_max, t_max)]
        assert found == _brute_force_pairs(n, ell, p_max, t_max)


def test_search_pairs_forced_divisibility():
    for cand in search_pairs(8, 3, 100, 100):
        assert (cand.p ** (cand.n // 2) + 1) % cand.t == 0
        assert example21_check(cand.n, cand.p, cand.t)


def test_search_pairs_jobs_deterministic():
    seq = search_pairs(4, 3, 80, 80, jobs=1)
    par = search_pairs(4, 3, 80, 80, jobs=3)
    assert [(c.p, c.t) for c in seq] == [(c.p, c.t) for c in par]


def test_search_pairs_bad_bounds():
    with pytest.raises(BadBounds):
        search_pairs(8, 3, 4, 20)
    with pytest.raises(BadBounds):
        search_pairs(7, 3, 100, 100)
    with pytest.raises(BadBounds):
        search_pairs(8, 9, 100, 100)
    for ell in (-3, 0, 1):
        with pytest.raises(BadBounds):
            search_pairs(8, ell, 100, 100)


def test_search_pairs_sieve_capped(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"search_pairs sieved to {limit}")

    monkeypatch.setattr(arith, "_prime_mark", no_sieve)
    with pytest.raises(TooLarge):
        search_pairs(8, 3, 10**11, 8)
    with pytest.raises(TooLarge):
        search_pairs(8, 3, 100, arith._SIEVE_LIMIT + 1)


def test_pair_candidate_flags_vs_oracle():
    # t = 1, composite t, p = 0 mod t, n with odd prime factors and ell = None;
    # p and t above 59^2 reach Miller-Rabin, and each t is asked for many
    # times, in and out of order, so the memo of is_prime(t) is read too;
    # each p of order n mod a large prime t is the least such prime above 16
    ells = (None, 3, 5, 13)
    large = [3481, 3529, 3599, 10009, 1000033]
    of_order_n = [449, 4337, 7057, 7753, 8539, 16249, 23321, 41081, 49253, 80071, 157561,
                  649529, 2029081, 2614133, 7162921]
    ts = list(range(1, 120)) + [193, 241, 257, 289, 337, 401, 409, 433] + large
    grid = [(p, t) for p in list(range(0, 120)) + large for t in ts]
    grid += [(p, t) for p in of_order_n for t in large]
    for n in (2, 4, 6, 8, 12, 16):
        for p, t in grid:
            ell = ells[(p + t) % 4]
            got = PairCandidate(n, p, t, ell).flags
            assert list(got.items()) == list(oracles.pair_flags(n, p, t, ell).items()), (
                n, p, t, ell,
            )


def test_search_pairs_orders_vs_mult_order():
    for n in (2, 4, 8, 16):
        for ell in (3, 5, 13):
            for p_max, t_max in ((120, 60), (700, 300), (2000, 600)):
                for c in search_pairs(n, ell, p_max, t_max):
                    assert mult_order_mod(c.p, c.t) == c.n, c


def test_pair_candidate_flags_recomputed():
    cand = PairCandidate(8, 19, 17, 3)
    assert cand.all_hold()
    bad = PairCandidate(8, 19, 15, 3)
    assert not bad.flags["t_prime"]
    assert not bad.all_hold()


def test_pair_candidate_refuses_odd_n():
    # 7 = 1 mod 3 and ord_7(11) = 3: every flag would hold at n = 3, where
    # p^(n/2) = -1 mod t is not defined; n is refused before any flag
    for n, p, t in ((3, 11, 7), (1, 11, 7), (0, 11, 7), (-2, 11, 7), (5, 3, 11)):
        with pytest.raises(BadInput, match="n must be even"):
            PairCandidate(n, p, t, 3)


def test_pair_candidate_value_semantics():
    cand = PairCandidate(8, 19, 17, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cand.p = 23
    with pytest.raises(dataclasses.FrozenInstanceError):
        cand.flags = {}
    # flags are computed, never passed in
    with pytest.raises(TypeError):
        PairCandidate(8, 19, 17, 3, flags={"t_prime": True})
    # eq and hash read (n, p, t, ell) alone
    same = PairCandidate(8, 19, 17, 3)
    same.flags["t_prime"] = False
    assert cand == same and hash(cand) == hash(same) == hash((8, 19, 17, 3))
    assert cand != PairCandidate(8, 19, 17) and PairCandidate(8, 19, 17).ell is None
    assert repr(cand) == (
        "PairCandidate(n=8, p=19, t=17, ell=3, flags={'t_prime': True, 'p_prime': True, "
        "'t_cong_1_mod_n': True, 'p_gt_n': True, 'ord_p_mod_t_is_n': True, "
        "'no_subfield_leak': True, 'p_gt_ell': True, 't_gt_ell': True})"
    )


def test_audit_statuses():
    report = {r["condition"]: r["status"] for r in audit_adz(8, 3, 19, 17)}
    assert report["t == 1 mod n"] == "CHECKED_TRUE"
    assert report["ord_t(p) == n"] == "CHECKED_TRUE"
    assert report["t > ell"] == "CHECKED_TRUE"
    assert report["p > ell"] == "CHECKED_TRUE"
    assert report["p splits completely in K"] == "NOT_EFFECTIVELY_CHECKABLE"
    assert report["t > max(d(n)+1, t(n), ell)"] == "NOT_EFFECTIVELY_CHECKABLE"


def test_audit_t_sharing_a_factor_with_p():
    # 6 neither divides 3 nor is coprime to it: no power of 3 is 1 mod 6
    report = {r["condition"]: r["status"] for r in audit_adz(2, 5, 3, 6)}
    assert report["ord_t(p) == n"] == "CHECKED_FALSE"


def test_audit_p_not_gt_ell():
    report = {r["condition"]: r["status"] for r in audit_adz(8, 19, 19, 17)}
    assert report["p > ell"] == "CHECKED_FALSE"


def test_audit_with_d_bound():
    report = audit_adz(8, 3, 19, 17, d_bound=15)
    last = report[-1]
    assert "d_bound" in last["condition"]
    assert last["status"] == "CHECKED_TRUE"  # 17 > 16
    report2 = audit_adz(8, 3, 19, 17, d_bound=17)
    assert report2[-1]["status"] == "CHECKED_FALSE"


def test_order_n_residues_ends_at_t():
    # t = 5 < n + 1: (t - 1) // n = 0, so every x gives y = 1 and none has
    # order 8; the walk stops at x = t
    assert_invariant_violation_within_a_second(lambda: arith._order_n_residues(8, 5, [2]))
