import ast
import random
import time
from pathlib import Path

import pytest

from oracles import (
    _in_omega_mod_p,
    _omega_count,
    all_reflections_all_vectors,
    int_rows,
    witt_decompose_recursive,
)
from tamerep import ortho
from tamerep.errors import (
    BadParams,
    CapExceeded,
    DegenerateForm,
    InvariantViolation,
    NotOrthogonal,
    NotSimilitude,
)
from tamerep.ff import find_generator, is_square, make_field
from tamerep.groups import DenseKind, GroupHandle, PrimeKind, _matrix_kind, closure
from tamerep.induce import invariant_forms
from tamerep.linalg import Matrix
from tamerep.ortho import (
    GroupFlavor,
    QuadraticSpace,
    SquareClass,
    all_reflections,
    classify_subgroup,
    group_order,
    orthogonal_group,
    reflection,
    reflection_decomposition,
    scalars_in,
    spinor_norm,
    square_class,
    standard_space,
    subgroup_where,
    witt_decompose,
)


def _hyperbolic(field, n):
    zero, one = field.zero, field.one
    g = [[zero] * n for _ in range(n)]
    for i in range(n // 2):
        g[2 * i][2 * i + 1] = one
        g[2 * i + 1][2 * i] = one
    return QuadraticSpace(field, Matrix(field, g))


def test_witt_examples_f3(F3):
    assert witt_decompose(_hyperbolic(F3, 2)).witt_index == 1
    rep = witt_decompose(QuadraticSpace(F3, Matrix(F3, [[1, 0], [0, 1]])))
    assert rep.witt_index == 0 and rep.epsilon == "-"
    rep = witt_decompose(QuadraticSpace(F3, Matrix(F3, [[1, 0], [0, -1]])))
    assert rep.witt_index == 1 and rep.epsilon == "+"


def test_witt_permutation_gram_big_field(rep_o_8_19_17):
    # the O-type invariant Gram over F_13^4: four explicit hyperbolic planes
    g = invariant_forms(rep_o_8_19_17)[0]
    rep = witt_decompose(QuadraticSpace(rep_o_8_19_17.field, g))
    assert rep.witt_index == 4
    assert rep.epsilon == "+"


def test_witt_anisotropic_oracle(F3):
    # exhaustive oracle: Q(x, y) = (x^2 + y^2) / 2 has no nonzero zero over
    # F_3, so diag(1, 1) is the anisotropic plane
    v = QuadraticSpace(F3, Matrix(F3, [[1, 0], [0, 1]]))
    zeros = [(x, y) for x in F3.elements() for y in F3.elements() if not v.quad((x, y))]
    assert zeros == [(F3.zero, F3.zero)]
    rep = witt_decompose(v)
    assert (rep.witt_index, rep.epsilon) == (0, "-")


def _random_nondegenerate(field, n, rng, zero_diagonal=False):
    """A seeded nondegenerate symmetric Gram; with zero_diagonal,
    witt_decompose's elimination must step b_i <- b_i + b_j."""
    while True:
        entries = [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                entries[i][j] = entries[j][i]
            if zero_diagonal:
                entries[i][i] = field.zero
        m = Matrix(field, entries)
        if not m.det().is_zero():
            return QuadraticSpace(field, m)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("p", [3, 13])
def test_witt_epsilon_vs_discriminant_random(n, p):
    # witt_decompose cross-checks the discriminant internally and fails loudly
    field = make_field(p, 1)
    rng = random.Random(1000 * p + n)
    for _ in range(40):
        v = _random_nondegenerate(field, n, rng)
        rep = witt_decompose(v)
        m = n // 2
        disc = v.gram.det() if m % 2 == 0 else -v.gram.det()
        assert (rep.epsilon == "+") == is_square(disc)


def test_degenerate_rejected(F3):
    with pytest.raises(DegenerateForm):
        QuadraticSpace(F3, Matrix.zeros(F3, 2, 2))
    with pytest.raises(BadParams):
        QuadraticSpace(F3, Matrix(F3, [[0, 1], [1, 1], [0, 0]][:2] + [[1, 1]]))


def test_spinor_identity_and_reflections(F3):
    h = _hyperbolic(F3, 2)
    assert spinor_norm(Matrix.identity(F3, 2), h) is SquareClass.SQUARE
    # reflection through v has spinor class Q(v)
    for v in [(F3.one, F3.one), (F3.one, -F3.one), (F3.element(2), F3.one)]:
        q = h.quad(v)
        if q.is_zero():
            continue
        assert spinor_norm(reflection(h, v), h) is square_class(q)


def test_spinor_minus_identity_hyperbolic_f3(F3):
    h = _hyperbolic(F3, 2)
    minus = Matrix.scalar(F3, -F3.one, 2)
    # -I = r_{e+f} r_{e-f}; Q(e+f) = 1, Q(e-f) = -1, product class nonsquare
    assert spinor_norm(minus, h) is SquareClass.NONSQUARE


def test_spinor_rejects_non_orthogonal(F3):
    h = _hyperbolic(F3, 2)
    with pytest.raises(NotOrthogonal):
        spinor_norm(Matrix(F3, [[1, 1], [0, 1]]), h)


def _anisotropic(v, rng):
    while True:
        w = tuple(v.field.random_element(rng) for _ in range(v.dim))
        if any(w) and v.quad(w):
            return w


def _assert_decomposes(m, v):
    """reflection_decomposition(m, v) multiplies back to m, has the parity of
    det(m) and at most 2 dim(v) vectors; returns the vectors."""
    vecs = reflection_decomposition(m, v)
    prod = Matrix.identity(v.field, v.dim)
    for w in vecs:
        prod = prod * reflection(v, w)
    assert prod == m
    assert (m.det() == v.field.one) == (len(vecs) % 2 == 0)
    assert len(vecs) <= 2 * v.dim
    return vecs


def test_reflection_decomposition_multiplies_back(F3):
    v = standard_space(4, "+", F3)
    grp = orthogonal_group(v, 1500)
    rng = random.Random(9)
    sample = rng.sample(list(grp.elements), 25)
    for m in sample:
        _assert_decomposes(m, v)


@pytest.mark.parametrize(
    "p, k, n", [(3, 1, 4), (5, 1, 6), (3, 2, 4), (5, 2, 4), (3, 3, 6), (11, 1, 8)]
)
@pytest.mark.parametrize("eps", ["+", "-"])
def test_reflection_decomposition_over_spaces(p, k, n, eps):
    # the identity, -I, one reflection and 25 seeded products of 1-6 random
    # reflections
    field = make_field(p, k)
    v = standard_space(n, eps, field)
    rng = random.Random(f"decomposition {p} {k} {n} {eps}")
    one = Matrix.identity(field, n)
    assert _assert_decomposes(one, v) == []
    assert len(_assert_decomposes(-one, v)) == n
    assert len(_assert_decomposes(reflection(v, _anisotropic(v, rng)), v)) == 1
    for _ in range(25):
        m = one
        for _ in range(rng.randrange(1, 7)):
            m = m * reflection(v, _anisotropic(v, rng))
        _assert_decomposes(m, v)


def test_reflection_decomposition_rejects_non_isometries(F3, F5):
    h = _hyperbolic(F3, 2)
    with pytest.raises(NotOrthogonal):
        reflection_decomposition(Matrix(F3, [[1, 1], [0, 1]]), h)
    # 2I is a similitude of every form over F_5, with factor 4, not an isometry
    v = standard_space(4, "-", F5)
    with pytest.raises(NotOrthogonal):
        reflection_decomposition(Matrix.scalar(F5, F5.element(2), 4), v)


def test_reflection_decomposition_checks_the_product(F3, monkeypatch):
    # along a basis that is not orthogonal, the two reflections through
    # W b + b and b can move a row peeled before b; every decomposition
    # returned must still multiply back, and the others are refused
    v = standard_space(4, "-", F3)
    rows = ortho._diagonalize(v.gram)
    skew = [rows[0], tuple(a + b for a, b in zip(rows[0], rows[1]))] + rows[2:]
    assert all(v.quad(b) for b in skew) and v.bilinear(skew[0], skew[1])
    monkeypatch.setattr(ortho, "_diagonalize", lambda S: skew)
    refused = 0
    for m in orthogonal_group(v, 1500).elements:
        try:
            vecs = reflection_decomposition(m, v)
        except InvariantViolation as exc:
            assert "multiply back" in str(exc)
            refused += 1
            continue
        prod = Matrix.identity(F3, 4)
        for w in vecs:
            prod = prod * reflection(v, w)
        assert prod == m
    assert refused


def test_spinor_homomorphism_sampled():
    for p, n, eps in [(3, 2, "+"), (3, 4, "+"), (5, 2, "-"), (7, 2, "-")]:
        field = make_field(p, 1)
        v = standard_space(n, eps, field)
        grp = orthogonal_group(v, 5200)
        rng = random.Random(p * 100 + n)
        elems = list(grp.elements)
        cache = {}

        def sp(m):
            if m not in cache:
                cache[m] = spinor_norm(m, v)
            return cache[m]

        for _ in range(60):
            a, b = rng.choice(elems), rng.choice(elems)
            assert sp(a * b) is sp(a) * sp(b)


def test_spinor_kernel_index_two_small():
    for p, n, eps in [(3, 2, "+"), (3, 2, "-"), (5, 2, "+"), (7, 2, "-"), (3, 4, "+")]:
        field = make_field(p, 1)
        v = standard_space(n, eps, field)
        grp = orthogonal_group(v, 1500)
        so = [m for m in grp.elements if m.det() == field.one]
        kernel = [m for m in so if spinor_norm(m, v) is SquareClass.SQUARE]
        assert len(so) == 2 * len(kernel)


def test_spinor_closed_form_on_hyperbolic_torus():
    # diag(a, 1/a) preserves xy and decomposes as r_{e+f} r_{e+af}; its spinor
    # class is the class of a, a closed form independent of the peeling code
    for q_spec in [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2)]:
        f = make_field(*q_spec)
        v = standard_space(2, "+", f)
        for x in f.elements():
            if x.is_zero():
                continue
            m = Matrix.diagonal(f, [x, x.inverse()])
            assert spinor_norm(m, v) is square_class(x), (q_spec, x)


def _decomposition_class(m, v):
    """Oracle: the square class of the product of Q(v_i) over an explicit
    reflection decomposition m = r_{v_1} ... r_{v_s}."""
    cls = SquareClass.SQUARE
    for w in reflection_decomposition(m, v):
        cls = cls * square_class(v.quad(w))
    return cls


@pytest.mark.parametrize("eps", ["+", "-"])
def test_wall_spinor_vs_decomposition_o4_3(eps):
    f3 = make_field(3, 1)
    v = standard_space(4, eps, f3)
    grp = orthogonal_group(v, 2000)
    assert grp.order == group_order(4, eps, 3, "O")
    for m in grp.elements:
        assert spinor_norm(m, v) is _decomposition_class(m, v), m


@pytest.mark.parametrize(
    "p, k, n", [(7, 1, 6), (11, 1, 8), (3, 2, 4), (5, 2, 4), (3, 3, 6)]
)
@pytest.mark.parametrize("eps", ["+", "-"])
def test_wall_spinor_vs_decomposition_random_products(p, k, n, eps):
    # m is a product of 0-6 seeded random reflections r_w; the product of the
    # Q(w) is a second oracle besides the decomposition of m itself
    field = make_field(p, k)
    v = standard_space(n, eps, field)
    rng = random.Random(f"wall {p} {k} {n} {eps}")
    for _ in range(100):
        m = Matrix.identity(field, n)
        want = SquareClass.SQUARE
        for _ in range(rng.randrange(7)):
            w = tuple(field.random_element(rng) for _ in range(n))
            if not any(w) or v.quad(w).is_zero():
                continue
            m = m * reflection(v, w)
            want = want * square_class(v.quad(w))
        got = spinor_norm(m, v)
        assert got is want, (p, k, n, eps)
        assert got is _decomposition_class(m, v), (p, k, n, eps)


def test_omega_equals_derived_subgroup():
    # independent characterization: the spinor-kernel subgroup of SO_4^+(3)
    # coincides with the commutator subgroup of O_4^+(3)
    from tamerep.groups import _conjugacy_class, _grow

    f3 = make_field(3, 1)
    v4 = standard_space(4, "+", f3)
    o4 = orthogonal_group(v4, 2000)
    so4 = subgroup_where(o4, lambda m: m.det() == f3.one)
    om = subgroup_where(so4, lambda m: spinor_norm(m, v4) is SquareClass.SQUARE)
    derived_gens = []
    for a in o4.gens:
        for b in o4.gens:
            comm = a * b * a.inverse() * b.inverse()
            derived_gens.extend(_conjugacy_class(o4, o4.kind.encode(comm)))
    derived = _grow(o4.kind, derived_gens)[0]
    assert len(derived) == om.order == 288
    assert {o4.kind.to_bytes(x) for x in derived.values()} == {
        m.canonical_bytes() for m in om.elements
    }


def _exhaustive_o2(field, gram):
    """Oracle: scan all 2x2 matrices over the field preserving the form."""
    count = 0
    q = field.q
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    m = Matrix(field, [[field.element_at(a), field.element_at(b)],
                                       [field.element_at(c), field.element_at(d)]])
                    if m.transpose() * gram * m == gram:
                        count += 1
    return count


def test_group_order_n2_exhaustive(F3):
    vplus = standard_space(2, "+", F3)
    vminus = QuadraticSpace(F3, Matrix(F3, [[1, 0], [0, 1]]))
    assert witt_decompose(vminus).epsilon == "-"
    assert _exhaustive_o2(F3, vplus.gram) == 4 == group_order(2, "+", 3, "O")
    assert _exhaustive_o2(F3, vminus.gram) == 8 == group_order(2, "-", 3, "O")


def test_group_order_n4_closure(F3):
    for eps, expected in [("+", 1152), ("-", 1440)]:
        v = standard_space(4, eps, F3)
        assert orthogonal_group(v, 2000).order == expected == group_order(4, eps, 3, "O")


def test_group_order_flavors():
    assert group_order(2, "+", 3, GroupFlavor.O) == 4
    assert group_order(2, "+", 3, GroupFlavor.SO) == 2
    assert group_order(2, "+", 3, GroupFlavor.OMEGA) == 1
    assert group_order(2, "-", 3, GroupFlavor.OMEGA) == 2
    assert group_order(4, "+", 3, GroupFlavor.GO) == 2304
    with pytest.raises(BadParams):
        group_order(3, "+", 3, "O")
    with pytest.raises(BadParams):
        group_order(4, "+", 4, "O")


def test_scalars_in(F3):
    h = _hyperbolic(F3, 2)
    assert len(scalars_in("OMEGA", h)) == 1  # -I has nonsquare spinor class
    assert len(scalars_in("O", h)) == 2
    assert len(scalars_in("SO", h)) == 2
    assert len(scalars_in("GO", h)) == 2  # q - 1 scalars
    f5 = make_field(5, 1)
    h5 = _hyperbolic(f5, 2)
    assert len(scalars_in("GO", h5)) == 4


def test_scalars_omega_minus_included():
    # O_4^+(3): -I is a product of two plane -I's, trivial spinor class
    f3 = make_field(3, 1)
    v = standard_space(4, "+", f3)
    assert len(scalars_in("OMEGA", v)) == 2


@pytest.fixture(scope="module")
def classified_groups():
    f3 = make_field(3, 1)
    v4 = standard_space(4, "+", f3)
    o4 = orthogonal_group(v4, 1500)
    so4 = subgroup_where(o4, lambda m: m.det() == f3.one)
    om4 = subgroup_where(so4, lambda m: spinor_norm(m, v4) is SquareClass.SQUARE)
    return f3, v4, o4, so4, om4


def test_classify_four_labels(classified_groups):
    f3, v4, o4, so4, om4 = classified_groups
    assert om4.order == 288 and so4.order == 576
    assert classify_subgroup(list(om4.gens), v4, True).label == "P_OMEGA"
    assert classify_subgroup(list(so4.gens), v4, True).label == "PSO"
    assert classify_subgroup(list(o4.gens), v4, True).label == "PO"
    v2 = standard_space(2, "+", f3)
    o2 = orthogonal_group(v2, 50)
    nu = f3.nonsquare()
    dil = Matrix(f3, [[nu, f3.zero], [f3.zero, f3.one]])
    assert classify_subgroup(list(o2.gens) + [dil], v2, True).label == "PGO"


def test_classify_other_for_intermediate(classified_groups):
    f3, v4, o4, so4, om4 = classified_groups
    spin_trivial_reflection = next(
        m
        for m in o4.elements
        if m.det() == -f3.one and spinor_norm(m, v4) is SquareClass.SQUARE
    )
    placement = classify_subgroup(list(om4.gens) + [spin_trivial_reflection], v4, True)
    assert placement.label == "OTHER"


def test_classify_conjugation_invariance(classified_groups):
    f3, v4, o4, so4, om4 = classified_groups
    rng = random.Random(21)
    # conjugate by a random invertible h: gens -> h^-1 g h, gram -> h^T G h
    while True:
        h = Matrix(
            f3, [[f3.element(rng.randrange(3)) for _ in range(4)] for _ in range(4)]
        )
        if not h.det().is_zero():
            break
    hinv = h.inverse()
    new_gram = h.transpose() * v4.gram * h
    new_v = QuadraticSpace(f3, new_gram)
    for gens, expected in [(om4.gens, "P_OMEGA"), (so4.gens, "PSO"), (o4.gens, "PO")]:
        conj = [hinv * g * h for g in gens]
        assert classify_subgroup(conj, new_v, True).label == expected


def test_classify_over_extension_field():
    # F_9 hyperbolic plane: -1 is a square (q = 1 mod 4) so no spinor collapse
    f9 = make_field(3, 2)
    v = standard_space(2, "+", f9)
    o = orthogonal_group(v, 50)
    assert o.order == group_order(2, "+", 9, "O") == 16
    so = subgroup_where(o, lambda m: m.det() == f9.one)
    om = subgroup_where(so, lambda m: spinor_norm(m, v) is SquareClass.SQUARE)
    assert classify_subgroup(list(om.gens), v, True).label == "P_OMEGA"
    assert classify_subgroup(list(so.gens), v, True).label == "PSO"
    assert classify_subgroup(list(o.gens), v, True).label == "PO"
    # without the promise the Omega count runs on the F_9 matrices
    placement = classify_subgroup(list(o.gens), v, False)
    assert placement.omega_verified and placement.label == "PO"
    nu = f9.nonsquare()
    dil = Matrix(f9, [[nu, f9.zero], [f9.zero, f9.one]])
    assert classify_subgroup(list(o.gens) + [dil], v, True).label == "PGO"


def test_classify_not_similitude(classified_groups):
    f3, v4, _, _, _ = classified_groups
    bad = Matrix(f3, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSimilitude):
        classify_subgroup([bad], v4, True)


def test_scalar_similitude_class_is_square(F3):
    # nu*I has similitude factor nu^2, a square: scalars never force PGO
    from tamerep.ortho import _similitude_factor

    h = _hyperbolic(F3, 2)
    nu = F3.nonsquare()
    for kind in (PrimeKind(F3, 2), DenseKind(F3, 2)):
        lam = _similitude_factor(kind, kind.encode(h.gram), kind.encode(Matrix.scalar(F3, nu, 2)))
        assert lam == nu * nu
        assert is_square(lam)


def test_quadratic_space_rejects_char_two():
    from tamerep.errors import OddCharacteristicRequired

    f2 = make_field(2, 1)
    with pytest.raises(OddCharacteristicRequired):
        QuadraticSpace(f2, Matrix(f2, [[0, 1], [1, 0]]))


def test_classify_promise_unverifiable():
    from tamerep.errors import PromiseUnverifiable

    f5 = make_field(5, 1)
    v = standard_space(4, "-", f5)  # |O_4^-(5)| = 31200 > the enumeration cap
    gens = orthogonal_group(v, 40000).gens
    with pytest.raises(PromiseUnverifiable):
        classify_subgroup(list(gens), v, False)


def test_scalars_in_too_large():
    from tamerep.errors import TooLarge

    f = make_field(10007, 1)
    h = _hyperbolic(f, 2)
    with pytest.raises(TooLarge):
        scalars_in("GO", h)


def test_classify_promise_verification(classified_groups):
    f3, v4, o4, _, om4 = classified_groups
    placement = classify_subgroup(list(o4.gens), v4, False)
    assert placement.label == "PO"
    assert placement.omega_verified
    # a group that does not contain Omega: a single reflection
    refl = all_reflections(v4)[0]
    placement = classify_subgroup([refl], v4, False)
    assert not placement.omega_verified
    assert placement.label == "OTHER"


# ---------------------------------------------------------------------------
# The Omega count from Schreier generators and the growing orthogonal_group
# against the enumerating and re-closing paths they replaced


def _field_omega_test(m, gram):
    """Oracle: the Omega test of classify_subgroup on FieldElement matrices
    (isometry, determinant 1, square Wall-form discriminant)."""
    if m.transpose() * gram * m != gram:
        return False
    if m.det() != gram.field.one:
        return False
    dense = DenseKind(gram.field, gram.nrows)
    return ortho._wall_spinor(dense, gram, m) is SquareClass.SQUARE


def _dilation(v, c):
    """A similitude of the plane v with factor c: diag(c, 1) on the
    hyperbolic plane, multiplication by a + b sqrt(nu) of norm
    a^2 - nu b^2 = c on the anisotropic plane x^2 - nu y^2."""
    f = v.field
    if v.gram.rows[0][0].is_zero():
        return Matrix(f, [[c, f.zero], [f.zero, f.one]])
    nu = f.nonsquare()
    a, b = next((a, b) for a in f.elements() for b in f.elements() if a * a - nu * b * b == c)
    return Matrix(f, [[a, nu * b], [b, a]])


def _seeded_reflections(v, rng, count=4):
    refs = []
    while len(refs) < count:
        w = tuple(v.field.random_element(rng) for _ in range(v.dim))
        if any(w) and v.quad(w):
            refs.append(reflection(v, w))
    return refs


def _omega_count_cases():
    """(label, generators, space, whether the group contains Omega):

    - O, SO and Omega of O+-(4,3), a single reflection, and three pairs of
      seeded random elements of O+-(4,3), whose containment is read off the
      element sets;
    - O+-(2,q) for q in {5, 7, 11, 13}, with a dilation by the first
      nonsquare, and at q in {7, 11, 13} by a generator of F_q^*, so that
      lambda(G) has up to q - 1 values;
    - O+-(2,257), whose entries take two bytes, from four seeded
      reflections, on the hyperbolic plane (monomial), on diag(1, -1) and of
      minus type;
    - over extension fields O+-(2,9), GO+-(2,9) and O+-(2,25)."""
    f3 = make_field(3, 1)
    for eps in ("+", "-"):
        v = standard_space(4, eps, f3)
        o = orthogonal_group(v, 2000)
        so = subgroup_where(o, lambda m: m.det() == f3.one)
        om = subgroup_where(so, lambda m: spinor_norm(m, v) is SquareClass.SQUARE)
        for name, grp in (("O", o), ("SO", so), ("Omega", om)):
            yield f"{name}{eps}(4,3)", list(grp.gens), v, True
        yield f"reflection in O{eps}(4,3)", [all_reflections(v)[0]], v, False
        rng = random.Random(f"pair {eps}")
        for i in range(3):
            pair = rng.sample(o.elements, 2)
            contains = om.byteset() <= closure(pair, 2000).byteset()
            yield f"pair {i} in O{eps}(4,3)", pair, v, contains
    for q in (5, 7, 11, 13):
        f = make_field(q, 1)
        for eps in ("+", "-"):
            v = standard_space(2, eps, f)
            gens = list(orthogonal_group(v, 2000).gens)
            yield f"O{eps}(2,{q})", gens, v, True
            yield f"GO{eps}(2,{q})", gens + [_dilation(v, f.nonsquare())], v, True
            if q > 5:
                dil = _dilation(v, find_generator(f))
                yield f"GO{eps}(2,{q}) by a generator", gens + [dil], v, True
    f257 = make_field(257, 1)
    rng = random.Random(257)
    for label, v in [
        ("O+(2,257) hyperbolic", standard_space(2, "+", f257)),
        ("O+(2,257) diagonal", QuadraticSpace(f257, Matrix.diagonal(f257, [1, -1]))),
        ("O-(2,257)", standard_space(2, "-", f257)),
    ]:
        yield label, _seeded_reflections(v, rng), v, True
    for p, k in ((3, 2), (5, 2)):
        f = make_field(p, k)
        for eps in ("+", "-"):
            v = standard_space(2, eps, f)
            gens = list(orthogonal_group(v, 2000).gens)
            yield f"O{eps}(2,{f.q})", gens, v, True
            if f.q == 9:
                yield f"GO{eps}(2,9)", gens + [_dilation(v, f.nonsquare())], v, True


def _base_change(rng, gens, v):
    """gens -> h^-1 g h and the Gram matrix -> h^T G h, for a seeded invertible h."""
    f, n = v.field, v.dim
    while True:
        h = Matrix(f, [[f.random_element(rng) for _ in range(n)] for _ in range(n)])
        if not h.det().is_zero():
            break
    h_inv = h.inverse()
    return [h_inv * g * h for g in gens], QuadraticSpace(f, h.transpose() * v.gram * h)


@pytest.mark.parametrize("conjugate", [False, True])
def test_omega_count_vs_field_oracle(conjugate):
    rng = random.Random("omega count")
    kinds, lambda_orders, contained = set(), {}, set()
    for label, gens, v, contains in _omega_count_cases():
        if conjugate:
            gens, v = _base_change(rng, gens, v)
        grp = closure(gens, 10_000)
        kinds.add(type(grp.kind))
        gram, f = v.gram, v.field
        want = [_field_omega_test(m, gram) for m in grp.elements]
        if f.k == 1:
            # the enumerating oracle's integer rows against FieldElement
            s = int_rows(gram)
            assert [_in_omega_mod_p(f.p, int_rows(m), s) for m in grp.elements] == want, label
        assert _omega_count(grp, gram) == sum(want), label
        kind = _matrix_kind(f, v.dim)
        s = kind.encode(gram)
        items = [kind.encode(g) for g in gens]
        lams, images = zip(*(ortho._characters(kind, s, x) for x in items))
        chis = [ortho._chi(t) for t in images]
        assert ortho._omega_order(kind, s, items, lams, chis, grp.order) == sum(want), label
        target = group_order(v.dim, witt_decompose(v).epsilon, f.q, "OMEGA")
        assert (sum(want) == target) is contains, label
        contained.add(contains)
        if label.startswith("GO"):
            values = {ortho._similitude_factor(kind, s, kind.encode(m)) for m in grp.elements}
            lambda_orders[label] = len(values)
    assert contained == {True, False}
    assert all(n > 1 for n in lambda_orders.values())
    for q in (7, 11, 13):
        for eps in ("+", "-"):
            assert lambda_orders[f"GO{eps}(2,{q}) by a generator"] == q - 1
    # the count decodes the items of every kind: prime closures over the
    # prime fields, monomial generators included, and dense elements over
    # the extension fields
    assert PrimeKind in kinds and DenseKind in kinds
    assert kinds == {PrimeKind, DenseKind}


def test_omega_count_stays_on_integer_rows(monkeypatch, classified_groups):
    # over F_3 classify builds no dense kind and calls no Matrix product or
    # determinant; the closure gives the count its order and nothing else,
    # and after it the count reads no group element and reads characters
    # only off Schreier generators: none when every generator is an
    # isometry, and for GO+(2,3) the |lambda(G)| * |gens| = 2 * len(go2) of
    # them but the one tree edge of the transversal walk, which is I
    f3, v4, o4, so4, _ = classified_groups
    v2 = standard_space(2, "+", f3)
    go2 = list(orthogonal_group(v2, 50).gens) + [_dilation(v2, f3.nonsquare())]
    evaluated = []

    def field_path(*args, **kwargs):
        raise AssertionError("classify left the integer rows")

    def counted_characters(kind, s, m):
        evaluated.append(m)
        return characters(kind, s, m)

    characters, grow = ortho._characters, ortho._grow
    for gens, v, label, reads in [
        (list(so4.gens), v4, "PSO", 0),
        (list(o4.gens), v4, "PO", 0),
        (go2, v2, "PGO", 2 * len(go2) - 1),
    ]:
        evaluated.clear()
        with monkeypatch.context() as patch:

            def order_only_grow(kind, cands, cap):
                order = len(grow(kind, cands, cap)[0])
                patch.setattr(GroupHandle, "elements", property(field_path))
                patch.setattr(GroupHandle, "items", property(field_path))
                patch.setattr(ortho, "_characters", counted_characters)
                return range(order), None

            patch.setattr(Matrix, "det", field_path)
            patch.setattr(Matrix, "__mul__", field_path)
            patch.setattr(DenseKind, "__init__", field_path)
            patch.setattr(ortho, "_grow", order_only_grow)
            placement = classify_subgroup(gens, v, False)
        assert placement.omega_verified and placement.label == label
        assert len(evaluated) == reads, label


def _block_dilation(v, c):
    """A similitude with factor c of a standard space v: the plane dilation
    of _dilation on each of its 2 x 2 diagonal blocks."""
    f, n = v.field, v.dim
    rows = [[f.zero] * n for _ in range(n)]
    for i in range(0, n, 2):
        plane = QuadraticSpace(f, Matrix(f, [r[i : i + 2] for r in v.gram.rows[i : i + 2]]))
        for a, row in enumerate(_dilation(plane, c).rows):
            rows[i + a][i : i + 2] = row
    return Matrix(f, rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotSimilitude as exc:
        return "NotSimilitude", str(exc)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_prime_characters_vs_dense_oracle(p):
    # (lambda, det_part, spinor) of _characters on the prime kind's integer
    # rows against the same function on the dense kind's Matrix elements, for
    # the same similitudes and non-similitudes under seeded base changes;
    # spinor_norm against _wall_spinor on the dense kind
    f = make_field(p, 1)
    rng = random.Random(f"characters {p}")
    units = [x for x in f.elements() if x]
    seen = set()
    for n in (2, 4, 6):
        for eps in ("+", "-"):
            v0 = standard_space(n, eps, f)
            refs = _seeded_reflections(v0, rng, 6)
            minus = Matrix.scalar(f, -f.one, n)
            sims = refs + [minus, refs[0] * refs[1], refs[2] * refs[3] * refs[4]]
            for c in [f.nonsquare()] + rng.sample(units, min(4, len(units))):
                sims.append(_block_dilation(v0, c) * rng.choice(refs))
                # factor c^2, square: normalized by ff.sqrt's root, which is c or -c
                sims.append(Matrix.scalar(f, c, n) * rng.choice(refs))
            others = [Matrix(f, [[f.random_element(rng) for _ in range(n)] for _ in range(n)])
                      for _ in range(4)]
            others.append(Matrix(f, [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]))
            gens, v = _base_change(rng, sims + others, v0)
            prime, dense = PrimeKind(f, n), DenseKind(f, n)
            s = prime.encode(v.gram)
            for g in gens:
                want = _outcome(ortho._characters, dense, v.gram, g)
                got = _outcome(ortho._characters, prime, s, prime.encode(g))
                assert got == want, (n, eps, g.rows)
                seen.add(want[1]["similitude"] if isinstance(want[1], dict) else want[0])
                if ortho.is_orthogonal(g, v):
                    want = ortho._wall_spinor(dense, v.gram, g)
                    assert spinor_norm(g, v) is want, (n, eps, g.rows)
                else:
                    with pytest.raises(NotOrthogonal):
                        spinor_norm(g, v)
    assert seen == {"square", "nonsquare", "NotSimilitude"}


def _reclosing_orthogonal_group(v, cap):
    """Oracle: orthogonal_group closing again from scratch each time a
    reflection is not yet in the group."""
    refs = all_reflections(v)
    gens = [refs[0]]
    grp = closure(gens, cap)
    for r in refs[1:]:
        if r not in grp:
            gens.append(r)
            grp = closure(gens, cap)
    return grp


def test_orthogonal_group_vs_reclosing_oracle():
    spaces = [(4, 3, 1), (4, 5, 1), (2, 5, 1), (2, 7, 1), (2, 11, 1), (2, 13, 1), (2, 3, 2)]
    for n, p, k in spaces:
        f = make_field(p, k)
        for eps in ("+", "-"):
            v = standard_space(n, eps, f)
            label = f"O{eps}({n},{f.q})"
            grp = orthogonal_group(v, 40_000)
            want = _reclosing_orthogonal_group(v, 40_000)
            assert grp.order == want.order == group_order(n, eps, f.q, "O"), label
            assert grp.kind is _matrix_kind(f, n), label
            if n == 4:
                # the prime kind with batched representative products
                assert isinstance(grp.kind, PrimeKind) and len(grp.gens) >= 3, label
            assert grp.elements == want.elements, label
            assert grp.gens == want.gens, label
            assert grp.byteset() == want.byteset(), label
            with pytest.raises(CapExceeded):
                orthogonal_group(v, grp.order - 1)
            assert orthogonal_group(v, grp.order).order == grp.order, label


def test_all_reflections_vs_all_vectors_oracle():
    # one vector per line gives the list that every anisotropic vector gave
    spaces = [(4, 3, 1), (4, 5, 1), (2, 13, 1), (2, 3, 2)]
    for n, p, k in spaces:
        f = make_field(p, k)
        for eps in ("+", "-"):
            v = standard_space(n, eps, f)
            got = [m.canonical_bytes() for m in all_reflections(v)]
            want = [m.canonical_bytes() for m in all_reflections_all_vectors(v)]
            assert got == want, f"O{eps}({n},{f.q})"
            assert len(got) == len(set(got)), f"O{eps}({n},{f.q})"


# ---------------------------------------------------------------------------
# witt_decompose's one diagonalization against the recursive oracle


@pytest.mark.parametrize(
    "p, k, dims",
    [(3, 1, (2, 4, 6)), (5, 1, (2, 4, 6)), (7, 1, (2, 4, 6)), (13, 1, (2, 4, 6)),
     (3, 2, (2, 4)), (5, 2, (2, 4)), (3, 3, (2, 4))],
    ids=["F3", "F5", "F7", "F13", "F9", "F25", "F27"],
)
def test_witt_vs_recursive_oracle(p, k, dims):
    field = make_field(p, k)
    rng = random.Random(f"witt {p}^{k}")
    for n in dims:
        spaces = [standard_space(n, eps, field) for eps in ("+", "-")]
        spaces += [_random_nondegenerate(field, n, rng, z) for z in [False] * 12 + [True] * 6]
        for v in spaces:
            assert witt_decompose(v) == witt_decompose_recursive(v), v.gram.rows


def test_witt_large_anisotropic_plane():
    # the enumerating isotropic search walked all q^2 vectors of this plane:
    # 19.4 s at q = 1021
    for q in (509, 1021):
        f = make_field(q, 1)
        v = QuadraticSpace(f, Matrix.diagonal(f, [f.one, -f.nonsquare()]))
        start = time.perf_counter()
        rep = witt_decompose(v)
        assert time.perf_counter() - start < 0.1, q
        assert (rep.witt_index, rep.epsilon) == (0, "-")


def test_enumerate_vectors_only_in_all_reflections():
    # the only vector enumeration in the library lists reflections; the type
    # never enumerates vectors
    callers = []
    for path in sorted(Path(ortho.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "_enumerate_vectors" in ast.unparse(node.func):
                    callers.append((path.name, fn.name))
    assert callers == [("ortho.py", "_reflections")]


def test_one_kind_chooser():
    # integer rows or Matrix elements: outside ff's arithmetic and
    # Matrix.det the choice is made once, by groups._matrix_kind, and only
    # groups constructs the prime and dense kinds
    kinds = ("PrimeKind", "DenseKind")
    field_tests, constructions = set(), set()
    for path in sorted(Path(ortho.__file__).parent.glob("*.py")):
        if path.name == "ff.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                    isinstance(x, ast.Attribute) and x.attr == "k"
                    for x in [node.left, *node.comparators]
                ):
                    field_tests.add((path.name, fn.name))
                if isinstance(node, ast.Call) and ast.unparse(node.func) in kinds:
                    constructions.add((path.name, fn.name))
    assert field_tests == {("linalg.py", "det"), ("groups.py", "_matrix_kind")}
    assert constructions == {("groups.py", "_matrix_kind")}
    # ortho closes on that kind alone: no function of it reaches closure
    chooser_names = {"closure"}
    reached, imported = set(), set()
    for fn in ast.walk(ast.parse(Path(ortho.__file__).read_text())):
        if isinstance(fn, ast.ImportFrom) and fn.module == "groups":
            imported.update(alias.name for alias in fn.names)
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in chooser_names:
                    reached.add((fn.name, name))
    assert reached == set()
    assert imported == {"GroupHandle", "_grow", "_matrix_kind"}


def test_one_kind_per_field_and_shape(monkeypatch):
    # once warm, the orthogonal layer and closure build no kind: every
    # isometry they check and every group they close is on _matrix_kind's
    # one kind for the field and dimension
    def second_kind(*args, **kwargs):
        raise AssertionError("a second kind was built")

    def run(v):
        grp = orthogonal_group(v, 2_000)
        gens = list(grp.gens)
        placements = [classify_subgroup(gens, v, promise) for promise in (True, False)]
        closed = closure(gens, 2_000)
        return grp, all_reflections(v), [spinor_norm(g, v) for g in gens], placements, closed

    spaces = [standard_space(4, eps, make_field(3, 1)) for eps in ("+", "-")]
    spaces.append(standard_space(2, "-", make_field(3, 2)))
    warm = [run(v) for v in spaces]
    with monkeypatch.context() as patch:
        patch.setattr(PrimeKind, "__init__", second_kind)
        patch.setattr(DenseKind, "__init__", second_kind)
        again = [run(v) for v in spaces]
    for v, (grp, refs, spins, placements, closed), (
        grp2, refs2, spins2, placements2, closed2
    ) in zip(spaces, warm, again):
        kind = _matrix_kind(v.field, v.dim)
        assert kind is _matrix_kind(v.field, v.dim)
        assert grp.kind is grp2.kind is closed.kind is closed2.kind is kind
        assert closed.byteset() == closed2.byteset() == grp.byteset()
        assert grp.elements == grp2.elements and grp.gens == grp2.gens
        assert refs == refs2 and spins == spins2 and placements == placements2
        assert all(p.omega_verified for p in placements), v.gram.rows


# golden labels of classify_subgroup without the promise
_CLASSIFY_GOLDENS = {
    (4, 3, "+"): {"SO": "PSO", "OMEGA": "P_OMEGA"},
    (4, 3, "-"): {"SO": "P_OMEGA", "OMEGA": "P_OMEGA"},
    (2, 5, "+"): {"O": "PO", "SO": "PSO", "OMEGA": "P_OMEGA"},
    (2, 5, "-"): {"O": "PO", "SO": "P_OMEGA", "OMEGA": "P_OMEGA"},
    (2, 7, "+"): {"O": "PO", "SO": "P_OMEGA", "OMEGA": "P_OMEGA"},
    (2, 7, "-"): {"O": "PO", "SO": "PSO", "OMEGA": "P_OMEGA"},
    (2, 11, "+"): {"O": "PO", "SO": "P_OMEGA", "OMEGA": "P_OMEGA"},
    (2, 11, "-"): {"O": "PO", "SO": "PSO", "OMEGA": "P_OMEGA"},
    (2, 13, "+"): {"O": "PO", "SO": "PSO", "OMEGA": "P_OMEGA"},
    (2, 13, "-"): {"O": "PO", "SO": "P_OMEGA", "OMEGA": "P_OMEGA"},
}


def test_type_needs_no_vector_enumeration(monkeypatch):
    cases = []
    for (n, q, eps), labels in _CLASSIFY_GOLDENS.items():
        f = make_field(q, 1)
        v = standard_space(n, eps, f)
        o = orthogonal_group(v, 2000)
        so = subgroup_where(o, lambda m: m.det() == f.one)
        om = subgroup_where(so, lambda m: spinor_norm(m, v) is SquareClass.SQUARE)
        for flavor, grp in (("O", o), ("SO", so), ("OMEGA", om)):
            if flavor in labels:
                cases.append((list(grp.gens), v, labels[flavor]))

    def refuse(*args):
        raise AssertionError("vector enumeration outside all_reflections")

    monkeypatch.setattr(ortho, "_enumerate_vectors", refuse)
    for q in (3, 5, 7):
        f = make_field(q, 1)
        for n in (2, 4, 6, 8):
            for eps in ("+", "-"):
                rep = witt_decompose(standard_space(n, eps, f))
                assert (rep.witt_index, rep.epsilon) == (n // 2 - (eps == "-"), eps)
    for gens, v, label in cases:
        placement = classify_subgroup(gens, v, False)
        assert placement.omega_verified and placement.label == label, (v.gram.rows, label)


# golden placements of classify_subgroup on planes over extension fields, the
# same with and without the promise: (label, spinor_minus_trivial, the
# characters of each generator as similitude, det_part and spinor initials,
# "-" for no spinor).  O, SO and Omega are the handles' generators and GO adds
# a dilation by the first nonsquare.
_EXTENSION_GOLDENS = {
    (3, 2, "+"): {"O": ("PO", True, "s-s s-s s-s s-n"), "SO": ("PSO", True, "s+s s+n"),
                  "OMEGA": ("P_OMEGA", True, "s+s"), "GO": ("PGO", True, "s-s s-s s-s s-n n+-")},
    (3, 2, "-"): {"O": ("PO", False, "s-n s-s"), "SO": ("P_OMEGA", False, "s+n"),
                  "OMEGA": ("P_OMEGA", False, "s+s"), "GO": ("PGO", False, "s-n s-s n+-")},
    (5, 2, "+"): {"O": ("PO", True, "s-s s-s s-s s-n"), "SO": ("PSO", True, "s+s s+s s+n"),
                  "OMEGA": ("P_OMEGA", True, "s+s s+s"),
                  "GO": ("PGO", True, "s-s s-s s-s s-n n+-")},
    (5, 2, "-"): {"O": ("PO", False, "s-n s-n s-s"), "SO": ("P_OMEGA", False, "s+s s+n"),
                  "OMEGA": ("P_OMEGA", False, "s+s"), "GO": ("PGO", False, "s-n s-n s-s n+-")},
    (3, 3, "+"): {"O": ("PO", False, "s-n s-s s-s"), "SO": ("P_OMEGA", False, "s+s s+n"),
                  "OMEGA": ("P_OMEGA", False, "s+s"), "GO": ("PGO", False, "s-n s-s s-s n+-")},
    (3, 3, "-"): {"O": ("PO", True, "s-s s-s s-s s-n"), "SO": ("PSO", True, "s+n s+n"),
                  "OMEGA": ("P_OMEGA", True, "s+s s+s"),
                  "GO": ("PGO", True, "s-s s-s s-s s-n n+-")},
}


def _golden_placement(label, spinor_minus_trivial, images):
    names = {"s": "square", "n": "nonsquare", "-": None}
    char_images = tuple(
        {"similitude": names[a], "det_part": "-1" if b == "-" else "+1", "spinor": names[c]}
        for a, b, c in images.split()
    )
    return ortho.SubgroupPlacement(label, char_images, spinor_minus_trivial, True)


@pytest.mark.parametrize("p, k, eps", list(_EXTENSION_GOLDENS))
def test_classify_extension_field_goldens(p, k, eps):
    f = make_field(p, k)
    v = standard_space(2, eps, f)
    o = orthogonal_group(v, 2000)
    so = subgroup_where(o, lambda m: m.det() == f.one)
    om = subgroup_where(so, lambda m: spinor_norm(m, v) is SquareClass.SQUARE)
    gens = {"O": list(o.gens), "SO": list(so.gens), "OMEGA": list(om.gens),
            "GO": list(o.gens) + [_dilation(v, f.nonsquare())]}
    for flavor, golden in _EXTENSION_GOLDENS[(p, k, eps)].items():
        want = _golden_placement(*golden)
        for promise in (True, False):
            assert classify_subgroup(gens[flavor], v, promise) == want, (flavor, promise)
