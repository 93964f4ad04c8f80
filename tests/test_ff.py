import ast
import hashlib
import operator
import random
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EmbeddingFailure,
    NotADivisor,
    embedding,
    euclid_inverse,
    norm_map,
    reduction_rows_by_lists,
    ring_frobenius,
    ring_mul,
)
from tamerep.errors import (
    DegreeZero,
    InvariantViolation,
    NonPrimeCharacteristic,
    OddCharacteristicRequired,
    SizeOverflow,
    ZeroElement,
)
from tamerep import ff
from tamerep.arith import factorize
from tamerep.ff import (
    find_generator,
    is_irreducible,
    is_square,
    make_field,
    mul_order,
    sqrt,
)


# The acceptance sweep's fields F_ell^k, k = ord_t(ell), and the fields of
# the modulus search at k = 96.
SWEEP_FIELDS = [
    (3, 3), (3, 4), (3, 5), (3, 6), (3, 8), (3, 10), (3, 16), (3, 18), (3, 28),
    (3, 30), (3, 52), (5, 3), (5, 4), (5, 5), (5, 6), (5, 9), (5, 14), (5, 16),
    (5, 20), (5, 30), (5, 36), (5, 52), (13, 4), (13, 13), (13, 14), (13, 18),
    (13, 30), (13, 36), (13, 40),
]

# Fields of certificates off the sweep: (8,37,89,+-1,3), (20,1693,241,+-1,3)
# and k = 96 at ell = 13.
CERT_FIELDS = [(3, 88), (3, 120), (13, 96)]


def _poly_root_free(coeffs, p):
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    return True


def _poly_gcd_is_one(a, b, p):
    a, b = list(a), list(b)
    while any(b):
        while b and b[-1] == 0:
            b.pop()
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


def rabin_oracle(coeffs, p):
    """Oracle for is_irreducible: Rabin's test on one monic polynomial, k
    Frobenius steps through the field kernel's _PolyRing, then the gcd
    checkpoints, with a root check first for small p."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False
    if p <= 4096 and not _poly_root_free(list(coeffs), p):
        return False
    ring = ff._PolyRing(p, coeffs)
    x = (0, 1) + (0,) * (k - 2)
    checkpoints = {k // r for r in factorize(k)}
    cur = x
    frobs = {}
    for step in range(1, k + 1):
        cur = ring_frobenius(ring, cur)
        if step in checkpoints:
            frobs[step] = cur
    if cur != x:
        return False
    for val in frobs.values():
        diff = list(val)
        diff[1] = (diff[1] - 1) % p
        if not _poly_gcd_is_one(list(coeffs), diff, p):
            return False
    return True


def lex_least_oracle(p, k):
    """Oracle for the modulus search: one candidate at a time in lex order."""
    j = p ** (k - 1)
    while True:
        coeffs = ff._int_to_coeffs(j, p, k) + (1,)
        if rabin_oracle(coeffs, p):
            return coeffs
        j += 1


def generator_oracle(f):
    """Oracle for find_generator: every candidate in enumeration order, every
    prime of q - 1 by exponentiation.

    On an extension field the candidates j < p are c * y with y = x^(k-1)
    and c in F_p^*; their powers (c * y)^e = c^e * y^e take one field power
    y^e and c^e in F_p, so large p stays affordable.
    """
    exps = [(f.q - 1) // r for r in sorted(f.q1_factors())]
    j = 1
    if f.k > 1:
        y = f.element_at(1)
        y_pows = [y**e for e in exps]
        for c in range(1, f.p):
            if all(y_e * pow(c, e, f.p) != f.one for e, y_e in zip(exps, y_pows)):
                return f.element_at(c)
        j = f.p
    while True:
        x = f.element_at(j)
        if all(x**e != f.one for e in exps):
            return x
        j += 1


def test_make_field_prime_field_modulus():
    f = make_field(17, 1)
    assert f.modulus == (0, 1)  # the degree-1 convention: modulus x
    assert f.q == 17


def test_make_field_f9_modulus():
    f = make_field(3, 2)
    # oracle: x^2 + 1 has no root in F_3 (squares are {0, 1})
    assert all((a * a + 1) % 3 != 0 for a in range(3))
    assert f.modulus == (1, 0, 1)


def test_make_field_13_4_size():
    assert make_field(13, 4).q == 28561


def test_make_field_interned():
    assert make_field(5, 3) is make_field(5, 3)


def test_make_field_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(15, 2)
    with pytest.raises(DegreeZero):
        make_field(5, 0)
    with pytest.raises(SizeOverflow):
        make_field(2, 600)
    with pytest.raises(SizeOverflow):
        make_field(3, 10**9)  # rejected without building 3^(10^9)


def test_modulus_is_lex_least():
    # exhaustive oracle for F_{3^2}: scan all monic quadratics in lex order
    def reducible(c0, c1):
        return any((a * a + c1 * a + c0) % 3 == 0 for a in range(3))

    best = None
    for c0 in range(3):
        for c1 in range(3):
            if not reducible(c0, c1):
                best = (c0, c1, 1)
                break
        if best:
            break
    assert make_field(3, 2).modulus == best


def test_is_irreducible_against_brute_force():
    # degree-3 over F_5: brute-force root/factor check
    import itertools

    for coeffs in itertools.product(range(5), repeat=3):
        poly = coeffs + (1,)
        has_root = any(
            (a**3 + coeffs[2] * a * a + coeffs[1] * a + coeffs[0]) % 5 == 0
            for a in range(5)
        )
        # degree 3: irreducible iff no root
        assert is_irreducible(poly, 5) == (not has_root)


def test_find_generator_f17():
    f = make_field(17, 1)
    g = find_generator(f)
    # oracle: modular exponentiation sweep
    assert g.coeffs == (3,)
    assert pow(2, 8, 17) == 1  # 2 has order 8, rejected
    assert pow(3, 8, 17) == 16  # 3 has order 16


def test_find_generator_f2():
    assert find_generator(make_field(2, 1)).coeffs == (1,)


def test_find_generator_f9():
    f = make_field(3, 2)
    g = find_generator(f)
    # exhaustive order check
    seen = g
    order = 1
    while seen != f.one:
        seen = seen * g
        order += 1
    assert order == 8
    # least: no earlier element in enumeration order has order 8
    for j in range(1, 9):
        x = f.element_at(j)
        if x == g:
            break
        cur, o = x, 1
        while cur != f.one:
            cur = cur * x
            o += 1
        assert o < 8


def test_mul_order_examples():
    f17 = make_field(17, 1)
    assert mul_order(f17.element(2)) == 8
    assert mul_order(f17.element(1)) == 1
    f13 = make_field(13, 1)
    assert mul_order(find_generator(f13)) == 12


def test_mul_order_zero_rejected():
    with pytest.raises(ZeroElement):
        mul_order(make_field(5, 1).zero)


def test_is_square_examples():
    f13 = make_field(13, 1)
    assert is_square(f13.element(-1))  # 5^2 = 25 = -1 mod 13
    f3 = make_field(3, 1)
    assert not is_square(f3.element(-1))
    for q_spec in [(3, 1), (5, 1), (13, 1), (3, 2), (7, 1)]:
        f = make_field(*q_spec)
        if f.q > 2:
            assert not is_square(find_generator(f))
    with pytest.raises(ZeroElement):
        is_square(f3.zero)


def test_is_square_vs_exhaustive_table():
    # every prime power q <= 121
    specs = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                              47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103,
                              107, 109, 113)
             for k in (1, 2, 3, 4, 5, 6) if p**k <= 121]
    for p, k in specs:
        f = make_field(p, k)
        squares = {(x * x).coeffs for x in f.elements() if not x.is_zero()}
        for x in f.elements():
            if x.is_zero():
                continue
            assert is_square(x) == (x.coeffs in squares), (p, k, x)


def test_sqrt_roundtrip():
    for p, k in [(3, 1), (5, 1), (13, 1), (3, 2), (13, 2), (5, 3)]:
        f = make_field(p, k)
        for x in f.elements():
            if x.is_zero() or not is_square(x):
                continue
            r = sqrt(x)
            assert r * r == x


def test_sqrt_characteristic_two():
    # squaring is the Frobenius on F_2^k, so every element is a square and
    # no non-square exists for Tonelli-Shanks
    for k in (1, 3, 8):
        f = make_field(2, k)
        for x in f.elements():
            assert sqrt(x) * sqrt(x) == x, (k, x)
    for k in (64, 200):
        f = make_field(2, k)
        rng = random.Random(k)
        for _ in range(50):
            x = f.random_element(rng)
            assert sqrt(x) * sqrt(x) == x, (k, x)
    with pytest.raises(OddCharacteristicRequired):
        make_field(2, 40).nonsquare()


def test_norm_map_generator():
    f9 = make_field(3, 2)
    g = find_generator(f9)
    n = norm_map(g, 1)
    # g^(1+3) = g^4 has order 2, the generator of F_3^x
    assert n.coeffs == (2,)


def test_norm_map_identity_cases():
    f9 = make_field(3, 2)
    assert norm_map(f9.one, 1) == make_field(3, 1).one
    assert norm_map(f9.zero, 1) == make_field(3, 1).zero


def test_norm_map_surjective_on_units():
    f81 = make_field(3, 4)
    image = {norm_map(x, 2).coeffs for x in f81.elements() if not x.is_zero()}
    assert len(image) == 8  # all of F_9^x


def test_norm_map_image_size_more_towers():
    for p, n, d in [(2, 4, 2), (5, 2, 1), (3, 6, 3), (7, 2, 1), (2, 6, 3)]:
        f = make_field(p, n)
        image = {norm_map(x, d).coeffs for x in f.elements() if not x.is_zero()}
        assert len(image) == p**d - 1, (p, n, d)


def test_norm_map_multiplicative():
    f81 = make_field(3, 4)
    rng = random.Random(7)
    for _ in range(40):
        x = f81.random_element(rng)
        y = f81.random_element(rng)
        assert norm_map(x, 2) * norm_map(y, 2) == norm_map(x * y, 2)


def test_norm_map_vs_conjugate_product():
    # oracle: the norm to the index-2 subfield is x * x^(p^2), compared after
    # lifting the subfield value back through the embedding
    f81 = make_field(3, 4)
    _sub, _root, basis = embedding(f81, 2)
    for j in range(81):
        x = f81.element_at(j)
        conj_prod = x * x**9
        val = norm_map(x, 2)
        lifted = f81.zero
        for c, b in zip(val.coeffs, basis):
            lifted = lifted + b * c
        assert lifted == conj_prod


def test_norm_map_not_a_divisor():
    f81 = make_field(3, 4)
    with pytest.raises(NotADivisor):
        norm_map(f81.one, 3)


def test_norm_map_embedding_cap():
    # explicit embeddings are capped at 2^16 subfield elements
    f = make_field(2, 34)
    with pytest.raises(EmbeddingFailure):
        norm_map(f.one, 17)
    # the identity norm never needs an embedding, even over large fields
    g = find_generator(make_field(13, 18))
    assert norm_map(g, 18) == g


FIELDS_FOR_AXIOMS = [(13, 1), (3, 2), (5, 3), (13, 4)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 3))
def test_field_axioms(ja, jb, jc, which):
    f = make_field(*FIELDS_FOR_AXIOMS[which])
    a = f.element_at(ja % f.q)
    b = f.element_at(jb % f.q)
    c = f.element_at(jc % f.q)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == f.zero
    if not a.is_zero():
        assert a * a.inverse() == f.one
        assert (a / a) == f.one


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, 3))
def test_mul_order_divides_q_minus_1(j, which):
    f = make_field(*FIELDS_FOR_AXIOMS[which])
    x = f.element_at(j % (f.q - 1) + 1) if f.q > 2 else f.one
    if x.is_zero():
        return
    e = mul_order(x)
    assert (f.q - 1) % e == 0
    assert x**e == f.one


def test_pow_pary_matches_binary():
    f = make_field(13, 18)
    g = find_generator(f)
    e = (f.q - 1) // 19 + 12345
    assert (g**e).coeffs == _schoolbook_pow(g.coeffs, e, f.modulus, f.p)


def _schoolbook_pow(a, e, mod, p):
    """Oracle: square-and-multiply on _schoolbook_mul."""
    result = (1,) + (0,) * (len(mod) - 2)
    while e:
        if e & 1:
            result = _schoolbook_mul(result, a, mod, p)
        a = _schoolbook_mul(a, a, mod, p)
        e >>= 1
    return result


@pytest.mark.parametrize(
    "p, k", [(13, 18), (5, 20), (1009, 16), (1000003, 2), (1000003, 3), (13, 13), (5, 9)]
)
def test_pow_paths_vs_schoolbook(p, k):
    # _PolyRing.pow_pary and __pow__, which runs it for every exponent, on
    # int64 fields and on the object arrays of (1000003, k); at (1009, 16)
    # the p-ary digits run up to 1008, and p + 1, p^4 and p^4 + 1 have two
    # and five base-p digits, with zero digits between
    f = make_field(p, k)
    assert f.ring.dtype is (object if p > 2**19 else np.int64)
    rng = random.Random(p * 100 + k)
    q = f.q
    exps = [0, 1, p - 1, p, p + 1, p**4, p**4 + 1, q - 2]
    exps += [(q - 1) // r for r in f.q1_factors()]
    exps += [rng.randrange(q) for _ in range(3)]
    for a in (find_generator(f), f.random_element(rng)):
        for e in exps:
            want = _schoolbook_pow(a.coeffs, e, f.modulus, p)
            assert tuple(next(f.ring.pow_pary(a.coeffs, [e])).tolist()) == want, (e, a)
            assert (a**e).coeffs == want, (e, a)


def test_inverse_vs_euclid_oracle():
    # the conjugate product over the norm against the list Euclid on the
    # pinned setup fields, F_3^256 and the object arrays of F_1000003^3:
    # random elements, constants, and x^-3 against the oracle's cube
    rng = random.Random(28)
    for p, k in dict.fromkeys(SETUP_PINNED_FIELDS + [(3, 256), (1000003, 3)]):
        f = make_field(p, k)
        xs = [f.random_element(rng) for _ in range(3)]
        xs += [f.element(rng.randrange(2, p)), f.one, f.minus_one]
        for x in filter(None, xs):
            want = euclid_inverse(x)
            assert x.inverse() == want, (p, k, x)
            assert (x**-3).coeffs == _schoolbook_pow(want.coeffs, 3, f.modulus, p), (p, k, x)
        with pytest.raises(ZeroElement):
            f.zero.inverse()


def test_inverse_checks_its_norm(monkeypatch):
    # x times the product of its other conjugates lies in F_p; when the
    # chain gives anything else, inverse raises rather than return it
    f = make_field(3, 16)
    monkeypatch.setattr(ff._PolyRing, "frobenius_product", lambda self, a, n: a)
    with pytest.raises(InvariantViolation, match="not a nonzero constant"):
        f.element_at(5).inverse()


def test_field_element_methods_hold_no_loop():
    # polynomial work stays in _PolyRing: no method of FieldElement runs a
    # for or while statement of its own
    tree = ast.parse(Path(ff.__file__).read_text())
    cls = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "FieldElement")
    loops = [
        (fn.name, type(node).__name__)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    ]
    assert loops == []


def test_element_coercion_and_repr():
    f = make_field(7, 2)
    assert f.element(9) == f.element(2)
    assert f.element([1, 3]).coeffs == (1, 3)
    with pytest.raises(ValueError):
        f.element([1, 2, 3])


def _schoolbook_mul(a, b, mod, p):
    """Oracle: full product, then long division by the monic modulus."""
    k = len(mod) - 1
    c = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):
        lead = c[d]
        for i in range(k + 1):
            c[d - k + i] = (c[d - k + i] - lead * mod[i]) % p
    return tuple(c[:k])


def test_mul_kernels_vs_schoolbook(monkeypatch):
    rng = random.Random(2024)
    small = [(3, 2), (3, 5), (5, 4), (7, 3), (13, 5), (13, 16)]
    for p, k in small:
        f = make_field(p, k)
        int_ring = ff._PolyRing(p, f.modulus)
        assert int_ring.dtype is np.int64
        with monkeypatch.context() as m:
            m.setattr(ff, "_np_safe", lambda p, k: object)
            obj_ring = ff._PolyRing(p, f.modulus)
        for _ in range(60):
            a = f.random_element(rng).coeffs
            b = f.random_element(rng).coeffs
            want = _schoolbook_mul(a, b, f.modulus, p)
            want_frob = (f.element(a) ** p).coeffs
            for ring in (int_ring, obj_ring):
                assert ring_mul(ring, a, b) == want, (ring.dtype, p, k, a, b)
                assert ring_frobenius(ring, a) == want_frob, (ring.dtype, p, k, a)
    f = make_field(1000003, 2)
    assert f.ring.dtype is object
    a, b = f.element((653159, 267853)), f.element((777820, 375951))
    assert (a * b).coeffs == (308160, 837984)
    for _ in range(200):
        a, b = f.random_element(rng), f.random_element(rng)
        assert (a * b).coeffs == _schoolbook_mul(a.coeffs, b.coeffs, f.modulus, f.p)
        assert ring_frobenius(f.ring, a.coeffs) == (a ** f.p).coeffs
    # mul_arr forms the full product as np.correlate(a, b[::-1], "full"), equal
    # to np.convolve(a, b) in values and dtype: on int64 coefficients of F_13^k
    # and on object ones of F_1000003^k, the dtype of the field above at k = 2
    for p, dtype in ((13, np.int64), (1000003, f.ring.dtype)):
        for k in (2, 4, 18, 96):
            a, b = (np.array([rng.randrange(p) for _ in range(k)], dtype) for _ in range(2))
            got, want = np.correlate(a, b[::-1], "full"), np.convolve(a, b)
            assert got.dtype == want.dtype == dtype and got.tolist() == want.tolist(), (p, k)


def test_unit_products_skip_the_kernel(monkeypatch):
    # one and minus one, on either side, against ring_mul on the coefficient
    # tuples; F_1000003^2 runs on object arrays
    rng = random.Random(23)
    fields = [make_field(3, 4), make_field(13, 4), make_field(5, 16), make_field(1000003, 2)]
    assert fields[-1].ring.dtype is object
    calls = []
    kernel = ff._PolyRing.mul_arr

    def counted(ring, a, b):
        calls.append(ring.k)
        return kernel(ring, a, b)

    for f in fields:
        one, minus_one = f.one, -f.one
        assert f.minus_one == minus_one
        xs = [f.random_element(rng) for _ in range(20)] + [f.zero, one, minus_one]
        want = [(x, ring_mul(f.ring, x.coeffs, u.coeffs), u) for x in xs for u in (one, minus_one)]
        with monkeypatch.context() as m:
            m.setattr(ff._PolyRing, "mul_arr", counted)
            for x, w, u in want:
                assert (x * u).coeffs == w and (u * x).coeffs == w, (f, x, u)
            assert calls == []
            # any other product still runs the kernel
            x, y = f.element([2] + [1] * (f.k - 1)), f.element([0, 3] + [0] * (f.k - 2))
            assert (x * y).coeffs == _schoolbook_mul(x.coeffs, y.coeffs, f.modulus, f.p)
            assert calls == [f.k]
        calls.clear()


def test_mixed_field_arithmetic_rejected():
    f9 = make_field(3, 2)
    a = f9.element([1, 2])
    others = [make_field(5, 2).element([4, 4]), make_field(3, 4).one, make_field(3, 1).one]
    for b in others:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y in ((a, b), (b, a)):
                message = f"element of {y.field} given to {x.field}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    op(x, y)
    # an equal descriptor that make_field did not intern still mixes freely
    twin = ff.FieldDescriptor(3, 2, f9.modulus).element([2, 2])
    assert a + twin == f9.element([0, 1])
    assert a * twin / twin == a


def test_only_ff_imports_numpy():
    # ast.walk also reaches imports inside functions; no module may start
    # threads or worker processes, so no input can fork without bound
    importers = []
    concurrency = []
    for path in sorted(Path(ff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            if "numpy" in roots:
                importers.append(path.name)
            if roots & {"concurrent", "multiprocessing", "threading"}:
                concurrency.append(path.name)
    assert set(importers) == {"ff.py"}
    assert concurrency == []


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and a bare AssertionError does not
    # say which cross-check failed; internal checks raise InvariantViolation
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ff.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []


@pytest.mark.parametrize("k", [1, 4])
def test_q1_factors_rejects_wrong_factorization(monkeypatch, k):
    # a fresh descriptor has no cached factorization
    fld = ff.FieldDescriptor(5, k, make_field(5, k).modulus)
    monkeypatch.setattr(ff, "factorize", lambda m: {2: 1})
    with pytest.raises(InvariantViolation, match="do not multiply to q - 1"):
        fld.q1_factors()


def test_make_field_large_characteristic_cubic():
    f = make_field(1000003, 3)
    assert is_irreducible(f.modulus, f.p)
    rng = random.Random(7)
    for _ in range(100):
        a, b = f.random_element(rng), f.random_element(rng)
        assert (a * b).coeffs == _schoolbook_mul(a.coeffs, b.coeffs, f.modulus, f.p)


@pytest.mark.parametrize("p, degrees", [(3, range(2, 6)), (5, range(2, 6)), (7, range(2, 6)),
                                        (13, range(2, 4))])
def test_is_irreducible_vs_rabin_oracle_exhaustive(p, degrees):
    # every monic polynomial of each degree, zero constant terms included
    for k in degrees:
        for j in range(p**k):
            coeffs = ff._int_to_coeffs(j, p, k) + (1,)
            assert is_irreducible(coeffs, p) == rabin_oracle(coeffs, p), coeffs


def _lazy_walk_vs_oracle(p, k):
    # seeded random candidates with a nonzero constant term and no root,
    # which all take the walk
    rng = random.Random(f"lazy/{p}/{k}")
    tested = 0
    while tested < 60:
        coeffs = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(k - 1)) + (1,)
        if p <= 4096 and not _poly_root_free(list(coeffs), p):
            continue
        assert is_irreducible(coeffs, p) == rabin_oracle(coeffs, p), coeffs
        tested += 1


@pytest.mark.parametrize("p, k", [(4093, 5), (13, 13), (5, 30), (3, 52), (13, 40), (61, 75),
                                  (61, 76)])
def test_lazy_rabin_walk_vs_oracle(p, k):
    # float rows of the walk go unreduced for up to 2, 2, 2, 3, 1, 1 and 3
    # steps here, with entries bounded below 2^24 / p on float32, all but
    # (4093, 5) and (61, 76), and below 2^53 / p on float64.  (61, 75) is
    # the last float32 degree at p = 61 and (61, 76) the first past it
    float32 = (p, k) not in [(4093, 5), (61, 76)]
    assert ff._block_dtype(p, k) is (np.float32 if float32 else np.float64)
    _lazy_walk_vs_oracle(p, k)


@pytest.mark.parametrize("p, k", [(13, 13), (5, 30), (3, 52), (13, 40)])
def test_lazy_rabin_walk_on_float64_vs_oracle(monkeypatch, p, k):
    # the float32 fields above forced onto float64, where the walk goes
    # unreduced for up to 6, 7, 7 and 5 steps
    monkeypatch.setattr(ff, "_block_dtype", lambda p, k: np.float64)
    _lazy_walk_vs_oracle(p, k)


@pytest.mark.parametrize("p, k", SWEEP_FIELDS + [(3, 96), (5, 96), (13, 96), (1000003, 2),
                                                 (1000003, 3), (4093, 5), (65537, 3)])
def test_modulus_search_vs_oracle(p, k):
    assert make_field(p, k).modulus == lex_least_oracle(p, k)


def test_modulus_search_dtypes():
    # float32 while p (k+1) (p-1)^2 < 2^24, float64 up to the int64 bounds
    # of the field kernel, exact object arrays past them
    assert ff._block_dtype(13, 96) is np.float32
    assert ff._block_dtype(3, 256) is np.float32
    assert ff._block_dtype(61, 75) is np.float32
    assert ff._block_dtype(61, 76) is np.float64
    assert ff._block_dtype(173, 2) is np.float32
    assert ff._block_dtype(179, 2) is np.float64
    assert ff._block_dtype(4093, 5) is np.float64
    assert ff._block_dtype(65537, 3) is np.float64
    assert ff._block_dtype(1000003, 2) is object


def test_modulus_search_first_batches(monkeypatch):
    # chunks of about 4k candidates: at p = 13 and k >= 14 the first chunk
    # has more than 12 survivors, so the first Rabin batch is full; F_13^4
    # takes chunks of 13, and a large p chunks of one candidate, whose first
    # batch is one row
    sizes = []
    rabin = ff._first_irreducible
    monkeypatch.setattr(ff, "_first_irreducible", lambda b, p: sizes.append(len(b)) or rabin(b, p))
    for (p, k), first in [((13, 14), 12), ((13, 18), 12), ((13, 30), 12), ((13, 40), 12),
                          ((13, 4), 5), ((4093, 5), 1), ((1000003, 3), 1)]:
        sizes.clear()
        assert ff._lex_least_irreducible(p, k)[0] == make_field(p, k).modulus
        assert sizes[0] == first, (p, k, sizes)


def test_modulus_search_object_dtype(monkeypatch):
    # the exact object-array path that very large characteristics take
    monkeypatch.setattr(ff, "_np_safe", lambda p, k: object)
    for p, k in [(3, 2), (3, 4), (3, 8), (5, 6), (7, 5), (13, 4), (13, 7), (2, 12)]:
        assert ff._block_dtype(p, k) is object
        modulus, _frob_rows = ff._lex_least_irreducible(p, k)
        assert modulus == lex_least_oracle(p, k), (p, k)
    for j in range(7**4):
        coeffs = ff._int_to_coeffs(j, 7, 4) + (1,)
        assert is_irreducible(coeffs, 7) == rabin_oracle(coeffs, 7), coeffs


def test_find_generator_vs_oracle():
    # with p = 2 no prime of q - 1 divides p - 1, so every prime is tested on
    # a subfield norm
    for p, k in SWEEP_FIELDS + CERT_FIELDS + [(17, 1), (2, 12), (2, 20), (2, 36)]:
        f = make_field(p, k)
        assert find_generator(f) == generator_oracle(f), (p, k)


def test_find_generator_large_characteristic():
    # goldens of the full-exponent search, which walked all p - 1 multiples
    # c * x^(k-1) here and took about 8 s on each field
    for k, want in [(2, (1, 2)), (3, (0, 1, 18))]:
        f = ff.FieldDescriptor(1000003, k, make_field(1000003, k).modulus)
        start = time.perf_counter()
        assert find_generator(f).coeffs == want
        assert time.perf_counter() - start < 2
    for p, k in [(10007, 2), (10007, 3), (100003, 3)]:
        f = make_field(p, k)
        assert find_generator(f) == generator_oracle(f), (p, k)


def test_norm_is_resultant():
    # random elements, the generator search's candidates element_at(j) with
    # j < p^3, x^s h with h(0) != 0, and k = 2; the dense resultant over all
    # k coefficients is the oracle, and on samples the power x^((q-1)/(p-1))
    rng = random.Random(9)
    for p, k in [(3, 4), (5, 9), (13, 14), (3, 52), (13, 40), (1000003, 3), (7, 2),
                 (1000003, 2)]:
        f = make_field(p, k)
        e = (f.q - 1) // (p - 1)
        samples = [f.random_element(rng) for _ in range(6)]
        samples += [f.element_at(rng.randrange(1, min(p**3, f.q))) for _ in range(4)]
        for s in sorted({1, k // 2, k - 1}):
            samples.append(f.element([0] * s + [rng.randrange(1, p)] + [
                rng.randrange(p) for _ in range(k - s - 1)]))
        for x in samples:
            if x.is_zero():
                continue
            assert (x**e).coeffs == (ff._norm(x),) + (0,) * (k - 1), (p, k, x)
        candidates = [f.element_at(j) for j in range(1, min(p**3, f.q, 2200))] + samples
        for x in candidates:
            assert ff._norm(x) == ff._resultant(list(f.modulus), list(x.coeffs), p), (p, k, x)


def test_find_generator_leaves_prime_order_powers():
    # the winner's g^((q-1)/r) for every prime r | q - 1, from the norm and
    # subfield tests, on a fresh descriptor whose cache starts empty
    for p, k in SWEEP_FIELDS + CERT_FIELDS:
        f = ff.FieldDescriptor(p, k, make_field(p, k).modulus)
        g = find_generator(f)
        assert sorted(f._zeta_cache) == sorted(f.q1_factors()), (p, k)
        for r, zeta in f._zeta_cache.items():
            assert zeta == g ** ((f.q - 1) // r), (p, k, r)


# The cert workload's fields and the large fields of the modulus search.
SETUP_PINNED_FIELDS = SWEEP_FIELDS + [(3, 3), (3, 4), (5, 4), (13, 4), (3, 64), (3, 88), (13, 96)]


def test_field_setup_digest():
    # cold make_field and find_generator on each pinned field: the modulus,
    # the Frobenius rows the modulus search hands to the ring (None where it
    # hands none), the generator and the cached elements of prime order,
    # hashed together, so a change to the search engines that moves any of
    # these outputs shows here
    digest = hashlib.sha256()
    for p, k in dict.fromkeys(SETUP_PINNED_FIELDS):
        f = make_field.__wrapped__(p, k)
        frob = f.ring._frob
        rows = None if frob is None else tuple(map(tuple, frob.tolist()))
        g = find_generator(f)
        zetas = sorted((r, z.coeffs) for r, z in f._zeta_cache.items())
        for r, coeffs in zetas:
            assert coeffs == (g ** ((f.q - 1) // r)).coeffs, (p, k, r)
        digest.update(repr((p, k, f.modulus, rows, g.coeffs, zetas)).encode())
    assert digest.hexdigest() == "046d36d439ecd080fb397a7ae9de7a5d1eb4b06efe82caafe010b6e07c406320"


def test_reduction_rows_vs_list_oracle():
    # the ring's rows x^(k+j) mod f come from the block recurrence that the
    # modulus search's Frobenius rows share; on every pinned field, on
    # F_3^256 and on the object arrays of F_1000003^3 they are the list
    # recurrence's rows, in the ring's dtype
    for p, k in dict.fromkeys(SETUP_PINNED_FIELDS + [(3, 256), (1000003, 3)]):
        ring = make_field(p, k).ring
        assert ring._redux.dtype == ring.dtype, (p, k)
        assert ring._redux.tolist() == reduction_rows_by_lists(p, ring.mod), (p, k)


def test_modulus_search_float64_matches_float32(monkeypatch):
    # every pinned field searches on float32; forced onto float64, the
    # search finds the same modulus and hands over the same Frobenius rows
    def search_all():
        out = []
        for p, k in dict.fromkeys(SETUP_PINNED_FIELDS):
            modulus, rows = ff._lex_least_irreducible(p, k)
            out.append((modulus, None if rows is None else rows.tolist()))
        return out

    assert all(ff._block_dtype(p, k) is np.float32 for p, k in SETUP_PINNED_FIELDS)
    on_float32 = search_all()
    monkeypatch.setattr(ff, "_block_dtype", lambda p, k: np.float64)
    assert search_all() == on_float32


@pytest.mark.parametrize("p, k, lazy", [
    (3, 16, False), (5, 9, False), (13, 13, False), (13, 40, False), (3, 52, False),
    (1000003, 2, False), (1000003, 3, False), (3, 3, True), (13, 2, True),
])
def test_modulus_search_hands_over_frobenius_matrix(p, k, lazy):
    # make_field keeps the modulus search's Frobenius matrix of the winner in
    # the ring's dtype; under the root filter k <= 3 builds none, and the
    # ring builds its own on first use
    f = make_field.__wrapped__(p, k)
    fresh = ff._PolyRing(p, f.modulus).frobenius_matrix()
    assert (f.ring._frob is None) == lazy
    frob = f.ring.frobenius_matrix()
    assert frob.dtype == fresh.dtype == f.ring.dtype
    assert frob.shape == (k, k) and (frob == fresh).all(), (p, k)
    if frob.dtype == object:
        assert all(type(c) is int for c in frob.flat)


def test_is_square_vs_euler_oracle():
    rng = random.Random(11)
    for p, k in [(3, 5), (5, 4), (7, 3), (13, 14), (3, 52), (1000003, 2)]:
        f = make_field(p, k)
        for _ in range(20):
            x = f.random_element(rng)
            if x.is_zero():
                continue
            assert is_square(x) == (x ** ((f.q - 1) // 2) == f.one), (p, k, x)
            assert is_square(x * x)


def _base_digits(e, p):
    n = 0
    while e:
        e //= p
        n += 1
    return n


def test_find_generator_exponentiations(monkeypatch):
    # the primes of q - 1 that divide p - 1 = 12 are read off the norm, and
    # each other prime r on the norm to F_(13^d), d = ord_r(13).  For
    # composite d the primes of a degree share u = N_d(x)^(13^e - 1), e the
    # largest proper divisor of d, formed by Frobenius steps and products
    # outside pow_pary, so each exponent (13^d - 1)/(r (13^e - 1)) has d - e
    # base-13 digits.  The exponent-only search made 53 field
    # exponentiations here; with the norm alone it made 17, whose exponents
    # had 648 base-13 digits in all, and with exponents of d digits 205
    f = ff.FieldDescriptor(13, 40, make_field(13, 40).modulus)
    calls = []
    power = ff._PolyRing.pow_pary
    # the exponents whose powers the search reads: pow_pary forms each one
    # when it is asked for
    monkeypatch.setattr(ff._PolyRing, "pow_pary", lambda ring, a, exps: (
        calls.append(e) or arr for e, arr in zip(exps, power(ring, a, exps))))
    assert find_generator(f).coeffs == (0,) * 38 + (2, 3)
    assert sum(_base_digits(e, 13) for e in calls) == 93


@pytest.mark.parametrize("p, k, products, steps", [(13, 40, 217, 300), (5, 36, 79, 140)])
def test_find_generator_work(monkeypatch, p, k, products, steps):
    # the products and Frobenius steps of the generator search on the
    # sweep's heaviest fields, on a fresh descriptor with the field's
    # Frobenius matrix: each subfield norm N_d is formed from the norm of
    # the least tested degree above d that d divides, by an Itoh-Tsujii
    # chain over the powers of sigma^d, and each degree's shared power
    # meets all its exponents from one table of digit powers.  One
    # Frobenius orbit per candidate with k/d - 1 products per degree took
    # 353 products and 265 steps at F_13^40, and 121 and 104 at F_5^36
    want = find_generator(make_field(p, k))
    f = ff.FieldDescriptor(p, k, want.field.modulus)
    f.ring.frobenius_matrix()
    counts = {"mul_arr": 0, "frobenius_arr": 0}
    for name in counts:
        real = getattr(ff._PolyRing, name)

        def counted(ring, *args, name=name, real=real):
            counts[name] += 1
            return real(ring, *args)

        monkeypatch.setattr(ff._PolyRing, name, counted)
    assert find_generator(f) == want
    assert counts == {"mul_arr": products, "frobenius_arr": steps}


# ---------------------------------------------------------------------------
# Every search ends: with its engine broken so that no candidate passes, each
# search raises InvariantViolation past its bound instead of running on


def assert_invariant_violation_within_a_second(fn):
    """fn() raises InvariantViolation in under a second; a search without an
    end fails at a 5 s alarm instead of hanging the run."""

    def alarm(signum, frame):
        raise TimeoutError("the search did not end")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = time.perf_counter()
        with pytest.raises(InvariantViolation):
            fn()
        assert time.perf_counter() - start < 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_modulus_search_ends_when_rabin_rejects_every_row(monkeypatch):
    monkeypatch.setattr(ff, "_first_irreducible", lambda block, p: None)
    assert_invariant_violation_within_a_second(lambda: ff._lex_least_irreducible(3, 6))


def test_modulus_search_ends_when_the_root_filter_rejects_every_row(monkeypatch):
    monkeypatch.setattr(ff, "_root_free", lambda block, p, powers: np.flatnonzero([]))
    assert_invariant_violation_within_a_second(lambda: ff._lex_least_irreducible(3, 3))


def test_generator_search_ends_at_q(monkeypatch):
    # every norm test fails, so no candidate has order q - 1; a fresh
    # descriptor, since make_field's keeps the generator it found
    f = ff.FieldDescriptor(7, 2, make_field(7, 2).modulus)
    monkeypatch.setattr(ff, "_norm", lambda x: 1)
    assert_invariant_violation_within_a_second(lambda: find_generator(f))


def test_nonsquare_raises_when_every_unit_reads_square(monkeypatch):
    f = ff.FieldDescriptor(5, 1, (0, 1))
    monkeypatch.setattr(ff, "is_square", lambda x: True)
    assert_invariant_violation_within_a_second(f.nonsquare)
