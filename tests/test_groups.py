import math
import random

import numpy as np
import pytest

from tamerep import groups
from tamerep.arith import is_prime
from tamerep.chars import TameCharacter
from tamerep.errors import BadInput, CapExceeded, SingularGenerator, SingularMatrix, TooLarge
from tamerep.ff import make_field
from tamerep.groups import (
    DenseKind,
    GroupHandle,
    PrimeKind,
    _conjugacy_class,
    _generating_subset,
    _grow,
    _matrix_kind,
    closure,
    element_order,
    gamma_d,
    is_metacyclic_tn,
    normal_subgroups,
)
from tamerep.induce import build_residual_rep, image_analysis, image_group
from tamerep.linalg import Matrix
from tamerep.ortho import (
    QuadraticSpace,
    SquareClass,
    all_reflections,
    classify_subgroup,
    group_order,
    orthogonal_group,
    reflection,
    spinor_norm,
    standard_space,
    subgroup_where,
)
from tamerep.sweep import sweep_tuples

from oracles import MonomialKind, _orbit, int_rows, monomial_closure
from test_ortho import _omega_count_cases


def test_closure_identity_only(F13):
    g = closure([Matrix.identity(F13, 2)], 10)
    assert g.order == 1


def test_closure_sigma_cyclic(rep_o_8_19_17):
    g = closure([rep_o_8_19_17.Sigma], 40)
    assert g.order == 17


def test_closure_full_image(rep_o_8_19_17):
    g = closure([rep_o_8_19_17.Phi, rep_o_8_19_17.Sigma], 300)
    assert g.order == 136


def test_closure_generator_order_invariance(rep_o_8_19_17):
    a = closure([rep_o_8_19_17.Phi, rep_o_8_19_17.Sigma], 300)
    b = closure([rep_o_8_19_17.Sigma, rep_o_8_19_17.Phi], 300)
    assert a.elements == b.elements


def test_closure_cap(rep_o_8_19_17):
    with pytest.raises(CapExceeded):
        closure([rep_o_8_19_17.Phi, rep_o_8_19_17.Sigma], 100)


def test_closure_singular_rejected(F3):
    with pytest.raises(SingularGenerator):
        closure([Matrix.zeros(F3, 2, 2)], 10)


def test_normal_subgroups_gamma136(rep_o_8_19_17):
    img = image_group(rep_o_8_19_17, 300)
    normals = normal_subgroups(img)
    assert [h.order for h in normals] == [1, 17, 34, 68, 136]
    # conjugation-closed, element by element
    for sub in normals:
        for h in img.gens:
            hinv = h.inverse()
            for m in sub.elements:
                assert (h * m * hinv) in sub


def test_normal_subgroups_cyclic17(rep_o_8_19_17):
    c = closure([rep_o_8_19_17.Sigma], 40)
    assert len(normal_subgroups(c)) == 2


def test_normal_subgroups_stype(rep_s_8_19_17):
    img = image_group(rep_s_8_19_17, 600)
    assert img.order == 272
    normals = normal_subgroups(img)
    orders = [h.order for h in normals]
    assert orders == [1, 2, 17, 34, 68, 136, 272]
    # the order-2 normal subgroup is the center {I, -I}
    minus = Matrix.scalar(img.field, -img.field.one, 8)
    two = next(h for h in normals if h.order == 2)
    assert minus in two


def test_gamma_d_examples(rep_o_8_19_17):
    img = image_group(rep_o_8_19_17, 300)
    normals = normal_subgroups(img)
    assert gamma_d(img, 1, normals).order == img.order
    assert gamma_d(img, 8, normals).order == 17
    assert gamma_d(img, 136, normals).order == 1
    sigma_sub = closure([rep_o_8_19_17.Sigma], 40)
    for d in (2, 4, 8, 20, 135):
        gd = gamma_d(img, d, normals)
        assert sigma_sub.byteset() <= gd.byteset()


def test_gamma_d_antitone_and_normal(rep_o_8_19_17):
    img = image_group(rep_o_8_19_17, 300)
    normals = normal_subgroups(img)
    prev = None
    for d in (1, 2, 4, 8, 16, 136):
        cur = gamma_d(img, d, normals)
        if prev is not None:
            assert cur.byteset() <= prev.byteset()
        prev = cur
        for h in img.gens:
            hinv = h.inverse()
            for m in cur.elements:
                assert (h * m * hinv) in cur


def test_metacyclic_gamma136(rep_o_8_19_17):
    img = image_group(rep_o_8_19_17, 300)
    ok, wit = is_metacyclic_tn(img, 17, 8)
    assert ok
    # conjugation acts by x -> x^(19 mod 17) = x^2
    assert wit["exponent"] == 2


def test_metacyclic_stype(rep_s_8_19_17):
    img = image_group(rep_s_8_19_17, 600)
    ok, wit = is_metacyclic_tn(img, 17, 8)
    assert ok
    from tamerep.arith import mult_order_mod

    assert mult_order_mod(wit["exponent"], 17) == 8


def test_metacyclic_dihedral():
    rep = build_residual_rep(TameCharacter(2, 5, 3, 1), 7)
    img = image_group(rep, 20)
    assert img.order == 6
    ok, wit = is_metacyclic_tn(img, 3, 2)
    assert ok
    assert wit["exponent"] == 2  # inversion


def test_metacyclic_abelian_false():
    # Z/17 x Z/8 inside GL_2(F_137): both orders divide 136
    f = make_field(137, 1)
    from tamerep.ff import find_generator

    g = find_generator(f)
    a = g ** (136 // 17)
    b = g ** (136 // 8)
    m1 = Matrix.diagonal(f, [a, f.one])
    m2 = Matrix.diagonal(f, [f.one, b])
    grp = closure([m1, m2], 200)
    assert grp.order == 136
    ok, _ = is_metacyclic_tn(grp, 17, 8)
    assert not ok


def test_too_large_guard(F3):
    stub = GroupHandle(F3, 1, (Matrix.identity(F3, 1),) * 10_001, ())
    with pytest.raises(TooLarge):
        normal_subgroups(stub)


def test_public_handle_takes_the_matrix_kind(F3):
    # the public constructor encodes on _matrix_kind's kind, as closure does
    # for non-monomial generators, and refuses a matrix it cannot encode
    f9 = make_field(3, 2)
    for field in (F3, f9):
        gens = [Matrix.scalar(field, -field.one, 2)]
        grp = GroupHandle(field, 2, [Matrix.identity(field, 2), gens[0]], gens)
        assert grp.kind is groups._matrix_kind(field, 2)
        assert [m.canonical_bytes() for m in grp.elements] == [
            m.canonical_bytes() for m in closure(gens, 10).elements
        ]
        assert grp.gens == tuple(gens) and gens[0] in grp
    assert isinstance(GroupHandle(F3, 2, (), ()).kind, PrimeKind)
    for bad in (Matrix.identity(F3, 3), Matrix.identity(f9, 2)):
        with pytest.raises(BadInput, match="2 x 2 over F_3"):
            GroupHandle(F3, 2, [bad], [])
        with pytest.raises(BadInput):
            GroupHandle(F3, 2, [Matrix.identity(F3, 2)], [bad])


def test_element_order(rep_o_8_19_17):
    img = image_group(rep_o_8_19_17, 300)
    assert element_order(img, rep_o_8_19_17.Sigma) == 17
    assert element_order(img, rep_o_8_19_17.Phi) == 8


def test_element_order_rejects_non_members(F3):
    g = closure([Matrix(F3, [[1, 1], [0, 1]])], 10)
    assert g.order == 3
    assert element_order(g, Matrix(F3, [[1, 2], [0, 1]])) == 3
    # diag(2, 1) has order 2 and [[1, 1], [1, 0]] order 8, neither in g
    for rows in ([[2, 0], [0, 1]], [[1, 1], [1, 0]]):
        with pytest.raises(BadInput):
            element_order(g, Matrix(F3, rows))


def _f9_group():
    """<[[0,1],[1,0]], [[1,1],[0,1]]> over F_9: GL_2(3), of order 48, on the
    dense kind."""
    f9 = make_field(3, 2)
    return closure([Matrix(f9, [[0, 1], [1, 0]]), Matrix(f9, [[1, 1], [0, 1]])], 1000)


def test_membership_refuses_other_fields(F3, F5):
    # the canonical bytes of a matrix do not record its field, so matrices of
    # another field with the same entries must be refused by the kind
    swap, shear = Matrix(F3, [[0, 1], [1, 0]]), Matrix(F3, [[1, 1], [0, 1]])
    for g in (closure([swap, shear], 1000), closure([swap], 1000)):
        assert Matrix.identity(F3, 2) in g
        assert Matrix.identity(F5, 2) not in g, type(g.kind)
        assert Matrix.identity(F3, 3) not in g, type(g.kind)
    h = _f9_group()
    assert h.order == 48 and isinstance(h.kind, DenseKind)
    f9, f25 = h.field, make_field(5, 2)
    m = Matrix(f25, [[1, 1], [0, 1]])
    assert Matrix(f9, [[1, 1], [0, 1]]) in h and m not in h
    assert element_order(h, Matrix(f9, [[1, 1], [0, 1]])) == 3
    with pytest.raises(BadInput):
        element_order(h, m)
    assert h.kind.encode(m) is None
    assert h.kind.encode(Matrix.identity(f9, 3)) is None
    assert h.kind.encode(Matrix.identity(f9, 2)) == Matrix.identity(f9, 2)


def _class_cases():
    """(label, group) on each kind: O+-(4,3) (prime), the (8,19,17,-1,13)
    image of order 272 (the oracles' monomial kind) and the order-48 group
    over F_9 (dense)."""
    for eps, _v, o, _so, _om in _orthogonal_4_3():
        yield f"O{eps}(4,3)", o
    rep = build_residual_rep(TameCharacter(8, 19, 17, -1), 13)
    yield "image (8,19,17,-1,13)", monomial_closure([rep.Phi, rep.Sigma], 600)
    yield "GL_2(3) over F_9", _f9_group()


def test_conjugacy_class_vs_orbit_oracle():
    # the batched class lists, in order, are the one-product-at-a-time BFS's;
    # the oracle's step h*x*h^-1 is memoized over the seeds of one group
    kinds = set()
    for label, g in _class_cases():
        kind = g.kind
        kinds.add(type(kind))
        key, mul = kind.key, kind.mul
        pairs = [(h, kind.inverse(h)) for h in g.item_gens]
        conjugates: dict = {}

        def step(x, i):
            k = (key(x), i)
            if k not in conjugates:
                h, h_inv = pairs[i]
                conjugates[k] = mul(mul(h, x), h_inv)
            return conjugates[k]

        for x in g.items:
            want = _orbit(kind, {key(x): x}, [x], range(len(pairs)), step)
            assert _conjugacy_class(g, x) == list(want.values()), label
    assert kinds == {PrimeKind, MonomialKind, DenseKind}
    assert [g.order for _label, g in _class_cases()] == [1152, 1440, 272, 48]


def test_prime_conjugacy_class_forms_no_single_products(monkeypatch):
    f3 = make_field(3, 1)
    o = orthogonal_group(standard_space(4, "-", f3), 2000)
    assert isinstance(o.kind, PrimeKind) and o.item_gens

    def single(*_args):
        raise AssertionError("PrimeKind.mul called")

    monkeypatch.setattr(PrimeKind, "mul", single)
    covered: set = set()
    for x in o.items:
        if x not in covered:
            cls = _conjugacy_class(o, x)
            assert covered.isdisjoint(cls)
            covered.update(cls)
    assert len(covered) == o.order


def test_monomial_kind_matches_matrices(rep_s_8_19_17):
    img = monomial_closure([rep_s_8_19_17.Phi, rep_s_8_19_17.Sigma], 600)
    kind = img.kind
    assert isinstance(kind, MonomialKind) and kind.m == 34
    xs = img.items[::7]
    for x, y in zip(xs, reversed(xs)):
        mx, my = kind.to_matrix(x), kind.to_matrix(y)
        assert kind.to_matrix(kind.mul(x, y)) == mx * my
        assert kind.to_matrix(kind.inverse(x)) == mx.inverse()
        assert kind.encode(mx) == x
        assert kind.to_bytes(x) == mx.canonical_bytes()
        assert (kind.sort_key(x) < kind.sort_key(y)) == (mx.canonical_bytes() < my.canonical_bytes())


def test_closure_non_monomial_is_dense(F3):
    unipotent = Matrix(F3, [[1, 1], [0, 1]])
    g = closure([unipotent, Matrix.diagonal(F3, [2, 1])], 100)
    assert g.kind is _matrix_kind(F3, 2)
    assert g.order == 6


def _dense_closure(gens):
    """Oracle: breadth-first product closure on dense matrices."""
    ident = Matrix.identity(gens[0].field, gens[0].nrows)
    seen = {ident.canonical_bytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m * g
                if prod.canonical_bytes() not in seen:
                    seen[prod.canonical_bytes()] = prod
                    nxt.append(prod)
        frontier = nxt
    elems = sorted(seen.values(), key=Matrix.canonical_bytes)
    return GroupHandle._make(DenseKind(gens[0].field, gens[0].nrows), elems, gens)


def _analysis(img, n, t):
    normals = normal_subgroups(img)
    _ok, wit = is_metacyclic_tn(img, t, n)
    return (
        [h.byteset() for h in normals],
        [gamma_d(img, d, normals).order for d in (1, 2, 4, 8, n * t)],
        wit["exponent"] if wit else None,
    )


def test_monomial_engine_vs_dense_oracle():
    for n, p, t, ell in sweep_tuples():
        if n * t > 250:
            continue
        for sign in (1, -1):
            rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
            img = monomial_closure([rep.Phi, rep.Sigma], 4 * n * t)
            assert isinstance(img.kind, MonomialKind)
            dense = _dense_closure([rep.Phi, rep.Sigma])
            label = (n, p, t, ell, sign)
            # canonical order and bytes, without building the monomial side's matrices
            assert [img.kind.to_bytes(x) for x in img.items] == [
                m.canonical_bytes() for m in dense.elements
            ], label
            assert _analysis(img, n, t) == _analysis(dense, n, t), label


@pytest.mark.parametrize("sign", [1, -1])
def test_normal_lattice_closed_form(sign):
    # G = C_t . <Phi> with C_t = <Sigma> and t prime: a normal subgroup meeting
    # C_t trivially centralizes it, so lies in C_t x <Phi^n> = C_t x <sign*I>;
    # the rest contain C_t and correspond to the subgroups of the cyclic G/C_t.
    n, p, t, ell = 8, 37, 89, 3
    rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
    img = monomial_closure([rep.Phi, rep.Sigma], 4 * n * t)
    assert isinstance(img.kind, MonomialKind)
    quot = img.order // t
    assert quot == (n if sign == 1 else 2 * n)
    ident = Matrix.identity(rep.field, n)
    expected = [monomial_closure([ident], 1)]
    if sign == -1:
        expected.append(monomial_closure([Matrix.scalar(rep.field, -rep.field.one, n)], 2))
    for e in range(1, quot + 1):
        if quot % e == 0:
            expected.append(monomial_closure([rep.Sigma, rep.Phi**e], img.order))
    normals = normal_subgroups(img)
    assert sorted(h.order for h in normals) == sorted(h.order for h in expected)
    assert {h.byteset() for h in normals} == {h.byteset() for h in expected}
    for d in (1, 2, 4, 8, n * t):
        want = img.byteset()
        for h in expected:
            if img.order // h.order <= d:
                want = want & h.byteset()
        assert gamma_d(img, d, normals).byteset() == want, d
    ok, wit = is_metacyclic_tn(img, t, n)
    assert ok and wit["exponent"] == p % t


def test_image_structure_vs_enumerating_oracle():
    # image_analysis reads the image off the checked shapes; the enumerated
    # image with normal_subgroups, gamma_d and is_metacyclic_tn is its oracle
    # on every sweep rep and at (8,37,89,+-1,3), at every d where the filter
    # can change: each index up to |G|/t = f <= 2n, and around |G|/2 and |G|
    for n, p, t, ell in sweep_tuples() + [(8, 37, 89, 3)]:
        for sign in (1, -1):
            rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
            image = image_analysis(rep)
            img = monomial_closure([rep.Phi, rep.Sigma], 4 * n * t)
            normals = normal_subgroups(img)
            ok, wit = is_metacyclic_tn(img, t, n)
            label = (n, p, t, ell, sign)
            assert (image.order, image.metacyclic, image.witness_exponent) == (
                img.order, ok, wit["exponent"] if wit else None
            ), label
            half = img.order // 2
            ds = set(range(1, 4 * n + 3)) | {half - 1, half, half + 1, n * t}
            ds |= {img.order - 1, img.order, img.order + 1}
            for d in sorted(ds):
                assert image.gamma_order(d) == gamma_d(img, d, normals).order, (label, d)
    with pytest.raises(BadInput):
        image.gamma_order(0)


def _monomial_closure_cases():
    """(label, generators, cap) of monomial generator sets: <Phi, Sigma> for
    every sweep rep with n*t <= 250 and at (8,37,89,+-1,3), and the
    generators of test_omega_count_vs_field_oracle that are monomial, on the
    hyperbolic planes over F_q for q in {5, 7, 11, 13, 9, 25, 257} and a
    reflection of O+-(4,3)."""
    tuples = [(n, p, t, ell) for n, p, t, ell in sweep_tuples() if n * t <= 250]
    for n, p, t, ell in tuples + [(8, 37, 89, 3)]:
        for sign in (1, -1):
            rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
            yield (n, p, t, ell, sign), [rep.Phi, rep.Sigma], 4 * n * t
    for label, gens, _v, _contains in _omega_count_cases():
        if MonomialKind.spanned_by(gens, 10_000) is not None:
            yield label, gens, 10_000


def test_image_closure_vs_monomial_oracle():
    # closure closes monomial generators on _matrix_kind's kind, and lists
    # the same elements, generating subset and byte set, in the same order,
    # as the monomial kind that it chose for them by itself; both close at
    # the order as cap and raise CapExceeded one below it
    labels = []
    for label, gens, cap in _monomial_closure_cases():
        want = monomial_closure(gens, cap)
        order = want.order
        grp = closure(gens, order)
        assert grp.kind is _matrix_kind(gens[0].field, gens[0].nrows), label
        got_bytes, want_bytes = grp.kind.to_bytes, want.kind.to_bytes
        assert list(map(got_bytes, grp.items)) == list(map(want_bytes, want.items)), label
        assert list(map(got_bytes, grp.item_gens)) == list(map(want_bytes, want.item_gens)), label
        assert grp.gens == want.gens == tuple(gens), label
        assert grp.byteset() == want.byteset(), label
        assert monomial_closure(gens, order).byteset() == want.byteset(), label
        for close in (closure, monomial_closure):
            with pytest.raises(CapExceeded):
                close(gens, order - 1)
        labels.append(label)
    assert (8, 37, 89, 3, -1) in labels and "O+(2,257) hyperbolic" in labels
    assert len([x for x in labels if isinstance(x, str)]) == 17


def _orthogonal_cases():
    """Non-monomial reflection sets: all reflections of O+-(4,3), and four
    seeded random reflections of O+-(2,257), whose entries take two bytes."""
    f3 = make_field(3, 1)
    for eps in ("+", "-"):
        yield f"O{eps}(4,3)", all_reflections(standard_space(4, eps, f3))
    f257 = make_field(257, 1)
    rng = random.Random(257)
    # diag(1, -1) is of plus type; unlike the hyperbolic Gram, its reflections
    # are not monomial
    for eps, space in [
        ("+", QuadraticSpace(f257, Matrix.diagonal(f257, [1, -1]))),
        ("-", standard_space(2, "-", f257)),
    ]:
        refs = []
        while len(refs) < 4:
            w = (f257.random_element(rng), f257.random_element(rng))
            if any(w) and space.quad(w):
                refs.append(reflection(space, w))
        yield f"O{eps}(2,257)", refs


def test_prime_kind_vs_dense_oracle():
    for label, gens in _orthogonal_cases():
        field, n = gens[0].field, gens[0].nrows
        grp = closure(gens, 2000)
        assert isinstance(grp.kind, PrimeKind), label
        kind = DenseKind(field, n)
        ident = kind.identity
        seen = _orbit(kind, {kind.key(ident): ident}, [ident], gens, kind.mul)
        dense = GroupHandle._make(kind, sorted(seen.values(), key=Matrix.canonical_bytes), gens)
        assert grp.order == dense.order, label
        assert [grp.kind.to_bytes(x) for x in grp.items] == [
            m.canonical_bytes() for m in dense.elements
        ], label
        assert [m.canonical_bytes() for m in grp.elements] == [
            m.canonical_bytes() for m in dense.elements
        ], label
        assert grp.byteset() == dense.byteset(), label
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][n - 1] = 1
        outside = Matrix(field, rows)  # a transvection, not an isometry
        assert outside not in grp and outside not in dense, label
        for m in dense.elements[:: max(1, dense.order // 60)]:
            assert m in grp, label
            assert element_order(grp, m) == element_order(dense, m), label
        if field.p == 257:
            # entries take two little-endian bytes, so canonical order is not
            # the numeric order of the integer rows
            assert grp.order == group_order(2, label[1], 257, "O"), label
            numeric = sorted(grp.items, key=lambda x: int_rows(grp.kind.to_matrix(x)))
            assert list(grp.items) != numeric, label


def test_prime_cosets_keep_per_element_order(monkeypatch):
    # a coset's array product lists h*r in the order of H, and a
    # representative's products r*g in the order of the generators, so the
    # closure meets its elements in the order that one product at a time gives
    cases = [(label, closure(gens, 2000)) for label, gens in _orthogonal_cases()]
    batched = [_grow(grp.kind, list(grp.item_gens)) for _, grp in cases]
    monkeypatch.setattr(PrimeKind, "stack", staticmethod(list))
    monkeypatch.setattr(PrimeKind, "coset", lambda self, sub, r: [self.mul(h, r) for h in sub])
    monkeypatch.setattr(PrimeKind, "products", lambda self, r, gs: [self.mul(r, g) for g in gs])
    for (label, grp), (seen, effective) in zip(cases, batched):
        want_seen, want_effective = _grow(grp.kind, list(grp.item_gens))
        assert list(seen.items()) == list(want_seen.items()), label
        assert effective == want_effective, label


def test_prime_kind_inverse_vs_matrix_inverse():
    for label, gens in _orthogonal_cases():
        grp = closure(gens, 2000)
        kind = grp.kind
        for x in grp.items:
            assert kind.inverse(x) == kind.encode(kind.to_matrix(x).inverse()), label
        with pytest.raises(SingularMatrix):
            kind.inverse(kind.encode(Matrix(kind.field, [[1] * kind.n] * kind.n)))


# ---------------------------------------------------------------------------
# Coset enumeration against the breadth-first closures it replaced


def _bfs(kind, seen, frontier, gens, cap=math.inf):
    """Oracle: grow seen (key -> element) breadth-first from frontier by
    right multiplication with every generator."""
    key = kind.key
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = kind.mul(x, g)
                k = key(y)
                if k not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return seen


def _bfs_closure(kind, gens, cap=math.inf):
    """Oracle: the breadth-first closure from the identity."""
    ident = kind.identity
    return _bfs(kind, {kind.key(ident): ident}, [ident], gens, cap)


def _bfs_grow(kind, cands, cap=math.inf):
    """Oracle: the growing closure that multiplies every new element by every
    effective candidate; returns (key -> element, effective candidates)."""
    key, mul = kind.key, kind.mul
    ident = kind.identity
    seen = {key(ident): ident}
    effective = []
    for c in cands:
        if key(c) in seen:
            continue
        effective.append(c)
        new = {}
        for x in seen.values():
            y = mul(x, c)
            if key(y) not in seen:
                new[key(y)] = y
        if len(seen) + len(new) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        seen.update(new)
        _bfs(kind, seen, list(new.values()), effective, cap)
    return seen, effective


def _orthogonal_4_3():
    f3 = make_field(3, 1)
    for eps in ("+", "-"):
        v = standard_space(4, eps, f3)
        o = orthogonal_group(v, 2000)
        so = subgroup_where(o, lambda m: m.det() == f3.one)
        om = subgroup_where(so, lambda m: spinor_norm(m, v) is SquareClass.SQUARE)
        yield eps, v, o, so, om


def _grow_cases():
    """(label, generators, cap, close) for the closures close: the sweep
    image groups with n*t <= 250 on the oracles' monomial kind, and on
    closure's kind reflections of O+-(4,3) and O+-(2,q) (prime kind), the
    F_9 planes (dense kind), the SO and Omega generator sets of O+-(4,3),
    and redundant candidate lists.  test_image_closure_vs_monomial_oracle
    holds closure to the monomial kind on the images."""
    for n, p, t, ell in sweep_tuples():
        if n * t > 250:
            continue
        for sign in (1, -1):
            rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
            yield (n, p, t, ell, sign), [rep.Phi, rep.Sigma], 4 * n * t, monomial_closure
    spaces = [(4, 3, 1), (2, 5, 1), (2, 7, 1), (2, 11, 1), (2, 13, 1), (2, 3, 2)]
    for n, p, k in spaces:
        f = make_field(p, k)
        for eps in ("+", "-"):
            refs = all_reflections(standard_space(n, eps, f))
            yield f"reflections O{eps}({n},{f.q})", refs, 2000, closure
    for eps, _v, o, so, om in _orthogonal_4_3():
        yield f"SO{eps}(4,3)", list(so.gens), 2000, closure
        yield f"Omega{eps}(4,3)", list(om.gens), 2000, closure
        ident = Matrix.identity(o.field, 4)
        yield f"identity first, SO{eps}(4,3)", [ident] + list(so.gens), 2000, closure
        yield f"repeated, Omega{eps}(4,3)", list(om.gens) * 2 + list(om.gens)[::-1], 2000, closure
        refl = o.item_gens[0]
        cls = [o.kind.to_matrix(x) for x in _conjugacy_class(o, refl)]
        yield f"class of a reflection, O{eps}(4,3)", cls, 2000, closure
    rep = build_residual_rep(TameCharacter(8, 19, 17, -1), 13)
    img = monomial_closure([rep.Phi, rep.Sigma], 600)
    cls = [img.kind.to_matrix(x) for x in _conjugacy_class(img, img.item_gens[0])]
    yield "class of Phi, (8,19,17,-1,13)", cls, 600, monomial_closure


def test_grow_vs_bfs_oracle():
    kinds = set()
    prime_effective = 0
    for label, gens, cap, close in _grow_cases():
        grp = close(gens, cap)
        kind = grp.kind
        kinds.add(type(kind))
        items = list(grp.item_gens)
        assert items == [kind.encode(g) for g in gens], label
        seen, effective = _grow(kind, items)
        want, want_effective = _bfs_grow(kind, items)
        assert seen.keys() == want.keys() == _bfs_closure(kind, items).keys(), label
        assert effective == want_effective, label
        if isinstance(kind, PrimeKind):
            prime_effective = max(prime_effective, len(effective))
        oracle = GroupHandle._make(kind, sorted(want.values(), key=kind.sort_key), items)
        assert grp.items == oracle.items, label
        assert grp.gens == oracle.gens == tuple(gens), label
        assert grp.byteset() == oracle.byteset(), label
        # the generating subset of a subgroup handle is the effective list
        assert list(_generating_subset(kind, grp.items)) == _bfs_grow(kind, grp.items)[1], label
        order = grp.order
        with pytest.raises(CapExceeded):
            _grow(kind, items, order - 1)
        with pytest.raises(CapExceeded):
            close(gens, order - 1)
        assert _grow(kind, items, order)[0].keys() == seen.keys(), label
        assert close(gens, order).byteset() == grp.byteset(), label
    assert kinds == {MonomialKind, PrimeKind, DenseKind}
    # batched representative products over more than two generators
    assert prime_effective >= 3


def test_closure_products_near_order(monkeypatch):
    # coset enumeration forms one product per element, each a row of its
    # coset's array product, plus one per coset representative and
    # generator, each a row of the representative's array product; a
    # breadth-first closure forms one per element and generator
    count = [0]
    mul, coset, batch = PrimeKind.mul, PrimeKind.coset, PrimeKind.products

    def counting(self, a, b):
        count[0] += 1
        return mul(self, a, b)

    def counting_coset(self, sub, r):
        count[0] += len(sub)
        return coset(self, sub, r)

    def counting_products(self, r, gens):
        count[0] += len(gens)
        return batch(self, r, gens)

    def products(fn, *args):
        monkeypatch.setattr(PrimeKind, "mul", counting)
        monkeypatch.setattr(PrimeKind, "coset", counting_coset)
        monkeypatch.setattr(PrimeKind, "products", counting_products)
        count[0] = 0
        grp = fn(*args)
        monkeypatch.setattr(PrimeKind, "mul", mul)
        monkeypatch.setattr(PrimeKind, "coset", coset)
        monkeypatch.setattr(PrimeKind, "products", batch)
        assert isinstance(grp.kind, PrimeKind)
        return count[0], grp.order

    for eps, v, _o, so, om in _orthogonal_4_3():
        cases = [
            (f"O{eps}(4,3)", orthogonal_group, v, 2000),
            (f"SO{eps}(4,3)", closure, list(so.gens), 2000),
            (f"Omega{eps}(4,3)", closure, list(om.gens), 2000),
        ]
        for label, fn, arg, cap in cases:
            done, order = products(fn, arg, cap)
            # every element but the identity is a row of some coset product
            assert order - 1 <= done <= 2 * order, (label, done, order)


@pytest.mark.parametrize("p, dtype", [(2**31 - 1, np.int64), (2**61 - 1, object)])
def test_prime_kind_exact_at_large_p(p, dtype):
    # int64 holds 2 * (p - 1)^2 at p = 2^31 - 1 and not at 2^61 - 1, where the
    # coset products run on Python integers
    f = make_field(p, 1)
    w = next(x for x in (pow(a, (p - 1) // 3, p) for a in range(2, 20)) if x != 1)
    # swap and diag(-w, 1) generate the monomial group C6 wr C2 of order 72
    mono = [Matrix(f, [[0, 1], [1, 0]]), Matrix(f, [[-w, 0], [0, 1]])]
    rng = random.Random(p)
    while True:
        h = Matrix(f, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
        if h.det():
            break
    gens = [h.inverse() * g * h for g in mono]
    grp = closure(gens, 1000)
    kind = grp.kind
    assert isinstance(kind, PrimeKind)
    assert kind.stack(grp.items).dtype == dtype
    assert grp.order == closure(mono, 1000).order == 72
    items = list(grp.item_gens)
    seen, effective = _grow(kind, items)
    want, want_effective = _bfs_grow(kind, items)
    assert seen.keys() == want.keys() == _bfs_closure(kind, items).keys()
    assert effective == want_effective
    assert max(c for x in grp.items for row in int_rows(kind.to_matrix(x)) for c in row) > 1 << 30
    with pytest.raises(CapExceeded):
        _grow(kind, items, 71)
    with pytest.raises(CapExceeded):
        closure(gens, 71)
    assert _grow(kind, items, 72)[0].keys() == seen.keys()
    assert closure(gens, 72).byteset() == grp.byteset()


@pytest.mark.parametrize(
    "p, width, dtype",
    [
        (3, 1, np.int64),
        (257, 2, np.int64),
        (65537, 3, np.int64),
        (2**31 - 1, 4, np.int64),
        (next(m for m in range(2**32 + 1, 2**40) if is_prime(m)), 5, object),
        (2**61 - 1, 8, object),
    ],
)
def test_prime_kind_element_is_canonical_bytes(p, width, dtype):
    # at every byte width a prime-kind element is the canonical bytes of its
    # matrix, and the closure lists the same elements in the same order as
    # the dense kind
    f = make_field(p, 1)
    assert f._byte_width == width
    # swap and diag(c, 1), c of order d, generate C_d wr C_2 of order 2 d^2
    d = math.gcd(p - 1, 12)
    c = next(
        x
        for x in (pow(a, (p - 1) // d, p) for a in range(2, 50))
        if all(pow(x, d // r, p) != 1 for r in (2, 3) if d % r == 0)
    )
    mono = [Matrix(f, [[0, 1], [1, 0]]), Matrix(f, [[c, 0], [0, 1]])]
    rng = random.Random(p)
    while True:  # a base change that leaves some generator not monomial
        h = Matrix(f, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
        if h.det():
            gens = [h.inverse() * g * h for g in mono]
            if MonomialKind.spanned_by(gens, 1000) is None:
                break
    grp = closure(gens, 1000)
    kind = grp.kind
    assert isinstance(kind, PrimeKind)
    assert kind.stack(grp.items).dtype == dtype
    assert grp.order == 2 * d * d
    for x in grp.items:
        m = kind.to_matrix(x)
        assert len(x) == 4 * width
        assert x == Matrix(f, m.rows).canonical_bytes()
        assert kind.encode(m) == x
    for x, y in zip(grp.items, grp.items[1:]):
        mx, my = kind.to_matrix(x), kind.to_matrix(y)
        assert kind.mul(x, y) == kind.encode(mx * my)
        assert kind.inverse(x) == kind.encode(mx.inverse())
        assert kind.transpose(x) == kind.encode(mx.transpose())
        assert kind.det(x) == mx.det()
    dense_kind = DenseKind(f, 2)
    seen, effective = _grow(dense_kind, gens)
    dense = GroupHandle._make(dense_kind, seen.values(), effective)
    assert grp.items == tuple(m.canonical_bytes() for m in dense.items)
    assert grp.byteset() == dense.byteset()


# ---------------------------------------------------------------------------
# Canonical order on first read: a handle made by the engine sorts its
# enumeration when its items are first read, and only then


def _count_sorts(monkeypatch) -> list:
    calls = []
    real = groups._sorted

    def counting(kind, elems):
        calls.append(len(elems))
        return real(kind, elems)

    monkeypatch.setattr(groups, "_sorted", counting)
    return calls


def test_order_only_reads_do_not_sort(monkeypatch):
    f3, f9 = make_field(3, 1), make_field(3, 2)
    rep = build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
    closures = [
        ("image (8,19,17,1,13)", [rep.Phi, rep.Sigma], 300),
        ("reflections O+(4,3)", all_reflections(standard_space(4, "+", f3)), 2000),
        ("reflections O-(2,9)", all_reflections(standard_space(2, "-", f9)), 100),
    ]
    classify_cases = []
    for eps, v, o, so, om in _orthogonal_4_3():
        for label, grp in [("O", o), ("SO", so), ("Omega", om)]:
            classify_cases.append((f"{label}{eps}(4,3)", list(grp.gens), v))
    for q in (5, 7, 11, 13):
        for eps in ("+", "-"):
            v = standard_space(2, eps, make_field(q, 1))
            classify_cases.append((f"O{eps}(2,{q})", list(orthogonal_group(v, 100).gens), v))
    spaces = [(eps, standard_space(4, eps, f3)) for eps in ("+", "-")]
    calls = _count_sorts(monkeypatch)
    for label, gens, cap in closures:
        grp = closure(gens, cap)
        assert grp.order == len(grp.byteset()), label
        assert gens[0] in grp and grp.order % element_order(grp, gens[0]) == 0, label
        assert calls == [], label
    for label, gens, v in classify_cases:
        placement = classify_subgroup(gens, v, False)
        assert placement.omega_verified, label
        assert calls == [], label
    for eps, v in spaces:
        assert orthogonal_group(v, 2000).order == group_order(4, eps, 3, "O"), eps
        assert calls == [], eps
    # the first read in canonical order sorts once, and later reads reuse it
    for label, gens, cap in closures:
        grp = closure(gens, cap)
        elements = grp.elements
        assert calls == [grp.order], label
        assert grp.elements is elements and len(grp.items) == grp.order, label
        assert calls == [grp.order], label
        calls.clear()


def _lazy_vs_eager_cases():
    """(label, generators, cap): the image groups at (8,19,17,+-1,13) and
    closures over F_9 (dense kind), and the prime reflection groups of
    O+-(4,3)."""
    for sign in (1, -1):
        rep = build_residual_rep(TameCharacter(8, 19, 17, sign), 13)
        yield f"image (8,19,17,{sign},13)", [rep.Phi, rep.Sigma], 600
    f3 = make_field(3, 1)
    for eps in ("+", "-"):
        yield f"reflections O{eps}(4,3)", all_reflections(standard_space(4, eps, f3)), 2000
    f9 = make_field(3, 2)
    refs = all_reflections(standard_space(2, "-", f9))
    yield "reflections O-(2,9)", refs, 100
    yield "scalars times O-(2,9)", refs + [Matrix.scalar(f9, f9.nonsquare(), 2)], 200


def test_lazy_order_vs_eager_sort_oracle():
    # the handle over the enumeration as _grow found it reads exactly as one
    # sorted when it is made, whatever is read first
    kinds = set()
    for label, gens, cap in _lazy_vs_eager_cases():
        lazy = closure(gens, cap)
        kind = lazy.kind
        kinds.add(type(kind))
        seen = _grow(kind, [kind.encode(g) for g in gens], cap)[0]
        eager_items = tuple(sorted(seen.values(), key=kind.sort_key))
        assert list(seen.values()) != list(eager_items), label
        eager = GroupHandle._make(kind, eager_items, [kind.encode(g) for g in gens])
        assert eager.items == eager_items, label
        assert lazy.byteset() == eager.byteset(), label
        assert lazy._keyset() == eager._keyset(), label
        assert lazy.items == eager_items, label
        assert lazy.elements == eager.elements, label
        assert lazy.gens == eager.gens == tuple(gens), label
        assert lazy.item_gens == eager.item_gens, label
        lazy_normals, eager_normals = normal_subgroups(lazy), normal_subgroups(eager)
        assert [h.items for h in lazy_normals] == [h.items for h in eager_normals], label
        assert [h.gens for h in lazy_normals] == [h.gens for h in eager_normals], label
        assert [h.byteset() for h in lazy_normals] == [h.byteset() for h in eager_normals], label
        for d in (1, 2, 4, 8, lazy.order):
            want = gamma_d(eager, d, eager_normals)
            got = gamma_d(lazy, d, lazy_normals)
            assert (got.items, got.gens) == (want.items, want.gens), (label, d)
        # a subgroup read by its predicate and the generating subsets that
        # normal_subgroups and subgroup_where hand on
        sub = subgroup_where(lazy, lambda m: m.det() == m.field.one)
        want = subgroup_where(eager, lambda m: m.det() == m.field.one)
        assert (sub.items, sub.gens) == (want.items, want.gens), label
    assert kinds == {PrimeKind, DenseKind}
