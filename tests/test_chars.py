import pytest

from oracles import norm_map
from tamerep.arith import divisors, factorize, has_mult_order, is_prime, mult_order_mod
from tamerep.chars import (
    CharType,
    TameCharacter,
    admissible_arith,
    classify_type,
    failed_type_condition,
    is_admissible,
    is_self_dual,
)
from tamerep.errors import BadCharacter
from tamerep.ff import find_generator, make_field


def test_constructor_validations():
    TameCharacter(8, 19, 17, 1)
    with pytest.raises(BadCharacter):
        TameCharacter(8, 20, 17, 1)  # p not prime
    with pytest.raises(BadCharacter):
        TameCharacter(8, 19, 17, 2)  # bad sign
    with pytest.raises(BadCharacter):
        TameCharacter(8, 19, 23, 1)  # 23 does not divide 19^8 - 1
    with pytest.raises(BadCharacter):
        TameCharacter(9, 3, 2, 1)  # p divides n


def test_admissibility_examples():
    assert is_admissible(TameCharacter(8, 19, 17, 1))
    # 3 | 19 - 1, so the order-3 character factors through every norm
    assert not is_admissible(TameCharacter(8, 19, 3, 1))
    assert is_admissible(TameCharacter(4, 3, 5, 1))


def _norm_kernel_dlogs(n, p, d):
    """Explicit-field oracle data: discrete logs of the norm-1 kernel.

    Enumerates powers of the deterministic generator and keeps the exponents
    whose norm to F_{p^d} is 1; a character of order t (chi(g^j) depends only
    on j mod t) factors through that norm iff all these dlogs are 0 mod t.
    """
    field = make_field(p, n)
    g = find_generator(field)
    sub_one = make_field(p, d).one
    kernel = []
    x = field.one
    for j in range(field.q - 1):
        if norm_map(x, d) == sub_one:
            kernel.append(j)
        x = x * g
    return kernel


def _oracle_admissible(n, p, t, kernels):
    return not any(all(j % t == 0 for j in kernels[d]) for d in kernels)


def test_admissibility_vs_field_oracle_f81():
    # (n=4, p=3): check every t | 80 against the explicit norm-kernel oracle
    n, p = 4, 3
    kernels = {d: _norm_kernel_dlogs(n, p, d) for d in divisors(n) if d < n}
    for t in divisors(3**4 - 1):
        assert admissible_arith(n, p, t) == _oracle_admissible(n, p, t, kernels), t


def test_admissibility_vs_field_oracle_more_fields():
    for n, p in [(2, 5), (2, 7), (6, 3), (3, 5)]:
        kernels = {d: _norm_kernel_dlogs(n, p, d) for d in divisors(n) if d < n}
        for t in divisors(p**n - 1):
            assert admissible_arith(n, p, t) == _oracle_admissible(n, p, t, kernels), (n, p, t)


def test_self_dual_examples():
    assert is_self_dual(TameCharacter(8, 19, 17, 1))
    assert is_self_dual(TameCharacter(8, 19, 17, -1))
    assert not is_self_dual(TameCharacter(8, 19, 5, 1))  # 19^4 = 1 mod 5
    assert is_self_dual(TameCharacter(2, 5, 3, -1))


def test_self_dual_odd_degree_false():
    assert not is_self_dual(TameCharacter(3, 5, 31, 1))


def test_power_predicates_vs_big_integer_formulas():
    # the library reduces pow(p, e, t); the formulas build p^e in full
    for n in range(1, 9):
        for p in (3, 5, 7, 11, 13):
            if n % p == 0:
                continue
            for t in range(1, 70):
                assert admissible_arith(n, p, t) == all(
                    (p ** (n // q) - 1) % t != 0 for q in factorize(n)
                ), (n, p, t)
                if (p**n - 1) % t != 0:
                    with pytest.raises(BadCharacter):
                        TameCharacter(n, p, t, 1)
                    continue
                chi = TameCharacter(n, p, t, 1)
                assert is_self_dual(chi) == (n % 2 == 0 and (p ** (n // 2) + 1) % t == 0)
                ord_n = is_prime(t) and p % t != 0 and mult_order_mod(p, t) == n
                assert (failed_type_condition(chi) is None) == (
                    ord_n and t % n == 1 and is_admissible(chi) and is_self_dual(chi)
                ), (n, p, t)


def test_classify_examples():
    assert classify_type(TameCharacter(8, 19, 17, 1)) is CharType.O_TYPE
    assert classify_type(TameCharacter(8, 19, 17, -1)) is CharType.S_TYPE
    assert classify_type(TameCharacter(8, 19, 15, 1)) is CharType.NEITHER


def test_type_implies_admissible_and_self_dual():
    from tamerep.arith import search_pairs

    for n in (2, 4, 8):
        for cand in search_pairs(n, 3, 60, 60):
            for sign in (1, -1):
                chi = TameCharacter(n, cand.p, cand.t, sign)
                if classify_type(chi) is not CharType.NEITHER:
                    assert is_admissible(chi)
                    assert is_self_dual(chi)


def test_order_n_forces_self_dual():
    # ord_t(p) = n with n even means p^(n/2) = -1 mod t for prime t
    from tamerep.arith import mult_order_mod

    for chi in [TameCharacter(8, 19, 17, 1), TameCharacter(4, 3, 5, 1), TameCharacter(2, 5, 3, 1)]:
        if mult_order_mod(chi.p, chi.t) == chi.n:
            assert is_self_dual(chi)


def test_order_n_makes_admissible():
    # ord_t(p) = n leaves no p^(n/q) at 1 mod t, so failed_type_condition
    # needs no admissibility test after the order test
    for n in range(1, 13):
        for t in filter(is_prime, range(300)):
            for p in range(200):
                if has_mult_order(p, n, t):
                    assert admissible_arith(n, p, t), (n, p, t)


def test_failed_condition_names():
    assert failed_type_condition(TameCharacter(8, 19, 15, 1)) == "t is not prime"
    assert failed_type_condition(TameCharacter(8, 19, 17, 1)) is None
    # t = 3: 3 mod 8 == 3, congruence fails first
    msg = failed_type_condition(TameCharacter(8, 19, 3, 1))
    assert "congruent" in msg


def test_exponent_index_validation():
    chi = TameCharacter(8, 19, 17, 1, exponent_index=3)
    assert chi.exponent_index == 3
    with pytest.raises(BadCharacter):
        TameCharacter(8, 19, 15, 1, exponent_index=5)  # gcd(5, 15) != 1
