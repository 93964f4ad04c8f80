import pytest

from oracles import (
    _commutation_rows,
    _invariance_rows,
    commutant_dim_of,
    invariant_forms_of,
    sparse_nullspace,
)
from tamerep import ff, induce, linalg
from tamerep.certs import _witt_data
from tamerep.chars import TameCharacter
from tamerep.errors import BadResidueChar, BadType, InvariantViolation
from tamerep.ff import find_generator
from tamerep.groups import closure
from tamerep.induce import (
    FormKind,
    _check_tame_relations,
    _hyperbolic_shape,
    _tame_matrices,
    build_residual_rep,
    commutant_dim,
    expected_image_order,
    form_kind,
    image_group,
    invariant_forms,
)
from tamerep.linalg import Matrix
from tamerep.ortho import QuadraticSpace, witt_decompose
from tamerep.sweep import sweep_tuples


def test_build_golden_o_type(rep_o_8_19_17):
    rep = rep_o_8_19_17
    assert rep.k == 4
    f = rep.field
    zeta = find_generator(f) ** ((f.q - 1) // 17)
    exps = [1, 2, 4, 8, 16, 15, 13, 9]  # powers of 19 = 2 mod 17
    for i in range(8):
        assert rep.Sigma.rows[i][i] == zeta ** exps[i]
    assert rep.Phi**8 == Matrix.identity(f, 8)
    assert rep.Sigma**17 == Matrix.identity(f, 8)


def test_build_golden_s_type(rep_s_8_19_17):
    rep = rep_s_8_19_17
    f = rep.field
    minus = Matrix.scalar(f, -f.one, 8)
    assert rep.Phi**8 == minus
    # Phi has order 16
    assert rep.Phi**16 == Matrix.identity(f, 8)
    assert all(rep.Phi**e != Matrix.identity(f, 8) for e in range(1, 16))


def test_build_small_dihedral():
    rep = build_residual_rep(TameCharacter(2, 5, 3, 1), 7)
    assert rep.k == 1  # 7 = 1 mod 3
    # zeta = g^((7-1)/3) = 3^2 = 2 for the deterministic generator 3 of F_7
    assert rep.Sigma.rows[0][0] == rep.field.element(2)
    assert rep.Sigma.rows[1][1] == rep.field.element(4)


def test_tame_relation_asserted(rep_o_8_19_17, rep_s_8_19_17):
    for rep in (rep_o_8_19_17, rep_s_8_19_17):
        assert rep.Phi * rep.Sigma * rep.Phi.inverse() == rep.Sigma ** rep.chi.p


def test_build_rejects():
    with pytest.raises(BadType) as exc:
        build_residual_rep(TameCharacter(8, 19, 15, 1), 13)
    assert str(exc.value) == "t is not prime"
    with pytest.raises(BadResidueChar):
        build_residual_rep(TameCharacter(8, 19, 17, 1), 17)
    with pytest.raises(BadResidueChar):
        build_residual_rep(TameCharacter(8, 19, 17, 1), 19)


def test_invariant_form_o_type(rep_o_8_19_17):
    forms = invariant_forms(rep_o_8_19_17)
    assert len(forms) == 1
    g = forms[0]
    assert form_kind(g) is FormKind.SYMMETRIC
    one, zero = g.field.one, g.field.zero
    for i in range(8):
        for j in range(8):
            assert g.rows[i][j] == (one if (j - i) % 8 == 4 else zero)
    for m in (rep_o_8_19_17.Phi, rep_o_8_19_17.Sigma):
        assert m.transpose() * g * m == g


def test_invariant_form_s_type(rep_s_8_19_17):
    forms = invariant_forms(rep_s_8_19_17)
    assert len(forms) == 1
    g = forms[0]
    assert form_kind(g) is FormKind.ALTERNATING
    for m in (rep_s_8_19_17.Phi, rep_s_8_19_17.Sigma):
        assert m.transpose() * g * m == g


def _untyped_gens(chi, ell):
    """[Phi, Sigma] of an untyped chi, which build_residual_rep refuses."""
    with pytest.raises(BadType):
        build_residual_rep(chi, ell)
    return list(_tame_matrices(chi, ell)[2:])


def _trace_average_invariant_dim(gens, cap):
    """Independent oracle: dim of the invariant-form space equals the average
    of tr(g)^2 over the group generated (valid since char does not divide the
    order); the average lands in the prime subfield and dim < ell here."""
    grp = closure(gens, cap)
    f = gens[0].field
    total = f.zero
    for m in grp.elements:
        tr = f.zero
        for i in range(m.nrows):
            tr = tr + m.rows[i][i]
        total = total + tr * tr
    avg = total * f.element(grp.order).inverse()
    assert all(c == 0 for c in avg.coeffs[1:])
    return avg.coeffs[0]


def test_non_self_dual_bundle_has_no_invariant_form():
    # ord_9(19) = 1: the order-9 character is not self-dual, forms dim 0
    gens = _untyped_gens(TameCharacter(8, 19, 9, 1), 13)
    assert invariant_forms_of(gens) == []
    assert _trace_average_invariant_dim(gens, 200) == 0


def test_order5_bundle_dimension_with_oracle():
    # ord_5(19) = 2, so the order-5 character is self-dual but inadmissible;
    # the invariant-form space is 4-dimensional (one per odd difference class)
    gens = _untyped_gens(TameCharacter(8, 19, 5, 1), 13)
    assert len(invariant_forms_of(gens)) == 4
    assert _trace_average_invariant_dim(gens, 100) == 4


def test_trace_oracle_agrees_on_golden(rep_o_8_19_17):
    rep = rep_o_8_19_17
    assert _trace_average_invariant_dim([rep.Phi, rep.Sigma], 300) == 1


def _trace_pairing_commutant_dim(gens, cap):
    """Independent oracle for the commutant: average of tr(g) tr(g^-1)."""
    grp = closure(gens, cap)
    f = gens[0].field
    inv = {m: m.inverse() for m in grp.elements}

    def tr(m):
        acc = f.zero
        for i in range(m.nrows):
            acc = acc + m.rows[i][i]
        return acc

    total = f.zero
    for m in grp.elements:
        total = total + tr(m) * tr(inv[m])
    avg = total * f.element(grp.order).inverse()
    assert all(c == 0 for c in avg.coeffs[1:])
    return avg.coeffs[0]


def test_commutant_trace_oracle(rep_o_8_19_17, rep_s_8_19_17):
    for rep, cap in ((rep_o_8_19_17, 300), (rep_s_8_19_17, 600)):
        assert _trace_pairing_commutant_dim([rep.Phi, rep.Sigma], cap) == commutant_dim(rep) == 1
    # reducible fixture: the order-9 bundle splits into characters
    gens = _untyped_gens(TameCharacter(8, 19, 9, 1), 13)
    assert _trace_pairing_commutant_dim(gens, 200) == commutant_dim_of(gens)


def test_form_kind_basics(F3):
    assert form_kind(Matrix.identity(F3, 2)) is FormKind.SYMMETRIC
    assert form_kind(Matrix(F3, [[0, 1], [-1, 0]])) is FormKind.ALTERNATING
    assert form_kind(Matrix(F3, [[0, 1], [0, 0]])) is FormKind.NEITHER


def test_commutant_golden(rep_o_8_19_17):
    assert commutant_dim(rep_o_8_19_17) == 1


def test_commutant_small():
    rep = build_residual_rep(TameCharacter(2, 5, 3, 1), 7)
    assert commutant_dim(rep) == 1


def test_commutant_direct_sum_fixture(F13):
    # two copies of the same 1-dimensional character: full 2x2 commutant
    c = Matrix.diagonal(F13, [3, 3])
    assert commutant_dim_of([c]) == 4


def test_image_group_orders(rep_o_8_19_17, rep_s_8_19_17):
    assert image_group(rep_o_8_19_17, 300).order == 136 == expected_image_order(rep_o_8_19_17)
    assert image_group(rep_s_8_19_17, 600).order == 272 == expected_image_order(rep_s_8_19_17)
    rep = build_residual_rep(TameCharacter(2, 5, 3, 1), 7)
    img = image_group(rep, 20)
    assert img.order == 6


def test_exponent_index_gives_conjugate_data():
    base = build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
    base_diag = sorted(e.coeffs for e in (base.Sigma.rows[i][i] for i in range(8)))
    for idx in (3, 5, 16):
        rep = build_residual_rep(TameCharacter(8, 19, 17, 1, exponent_index=idx), 13)
        diag = sorted(e.coeffs for e in (rep.Sigma.rows[i][i] for i in range(8)))
        assert rep.k == base.k
        forms = invariant_forms(rep)
        assert len(forms) == 1
        assert form_kind(forms[0]) is FormKind.SYMMETRIC
        assert image_group(rep, 300).order == 136
        if idx == 16:
            # 16 = -1 mod 17: the inverse character, same eigenvalue multiset
            assert diag == base_diag


def test_sweep_systems_sparse_vs_dense_oracle(densified_nullspace):
    # the form and commutant systems of the acceptance sweep, both signs
    checked = 0
    for n, p, t, ell in sweep_tuples():
        if n * t > 250:
            continue
        for sign in (1, -1):
            rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
            for system in (_invariance_rows, _commutation_rows):
                rows = system(rep.Phi) + system(rep.Sigma)
                want = densified_nullspace(rep.field, rows, n * n)
                assert sparse_nullspace(rep.field, rows, n * n) == want, (n, p, t, ell, sign)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("sign", [1, -1])
def test_n_squared_systems_never_densify(monkeypatch, sign):
    rep = build_residual_rep(TameCharacter(8, 37, 89, sign), 3)

    def dense_elimination(*args, **kwargs):
        raise AssertionError("the n^2 system went through a dense elimination")

    # nullspace reaches _row_reduce through the module, so this also catches
    # a caller that imported nullspace by name
    monkeypatch.setattr(linalg, "nullspace", dense_elimination)
    monkeypatch.setattr(linalg, "_row_reduce", dense_elimination)
    forms = invariant_forms_of([rep.Phi, rep.Sigma])
    assert len(forms) == 1
    assert form_kind(forms[0]) is (FormKind.SYMMETRIC if sign == 1 else FormKind.ALTERNATING)
    assert commutant_dim_of([rep.Phi, rep.Sigma]) == 1


def _assert_reads_match_solvers(rep):
    """invariant_forms, commutant_dim and the certificate's Witt data of rep
    against the general solvers and witt_decompose."""
    gens = [rep.Phi, rep.Sigma]
    forms = invariant_forms(rep)
    assert forms == invariant_forms_of(gens)
    assert commutant_dim(rep) == commutant_dim_of(gens)
    if form_kind(forms[0]) is FormKind.SYMMETRIC:
        report = witt_decompose(QuadraticSpace(rep.field, forms[0]))
        want = (report.witt_index, report.epsilon)
        assert _witt_data(rep, forms[0], FormKind.SYMMETRIC) == want


def test_shape_reads_vs_general_solvers():
    reps = [
        build_residual_rep(TameCharacter(n, p, t, sign), ell)
        for n, p, t, ell in sweep_tuples()
        if n * t <= 250
        for sign in (1, -1)
    ]
    reps += [build_residual_rep(TameCharacter(8, 37, 89, sign), 3) for sign in (1, -1)]
    assert len(reps) == 190
    for rep in reps:
        _assert_reads_match_solvers(rep)


def test_untyped_pairs_fail_shape_preconditions():
    # the build refuses these characters; their matrices fail the shape checks
    for chi, ell in [
        # Sigma repeats entries: ord_9(19) = 1 and ord_5(19) = 2
        (TameCharacter(8, 19, 9, 1), 13),
        (TameCharacter(8, 19, 5, 1), 13),
        # distinct entries, but 19 = 4 mod 15 leaves d_0 d_1 = zeta^5 != 1
        (TameCharacter(2, 19, 15, 1), 7),
    ]:
        _k, field, Phi, Sigma = _tame_matrices(chi, ell)
        with pytest.raises(BadType):
            build_residual_rep(chi, ell)
        sign = field.one if chi.sign == 1 else -field.one
        relations = _check_tame_relations(Phi, Sigma, chi.p, chi.t, sign)
        assert _hyperbolic_shape(*relations) is None, chi


def test_relation_check_raises_on_each_fault():
    # the check compares d[perm[i]] with d_i^(p mod t), sound only once
    # d_0^t = 1 and perm is one n-cycle; each fault still raises: -Sigma,
    # whose d_0 has order 2t and which keeps Phi Sigma Phi^-1 = Sigma^p, two
    # swapped diagonal entries, and a Phi of two 4-cycles with Phi^8 = I
    chi = TameCharacter(8, 19, 17, 1)
    _k, field, Phi, Sigma = _tame_matrices(chi, 13)
    one, n = field.one, 8
    _check_tame_relations(Phi, Sigma, chi.p, chi.t, one)
    d = [Sigma.rows[i][i] for i in range(n)]
    neg = Matrix.diagonal(field, [-x for x in d])
    assert Phi * neg == neg**chi.p * Phi
    with pytest.raises(InvariantViolation, match="order dividing t"):
        _check_tame_relations(Phi, neg, chi.p, chi.t, one)
    swapped = Matrix.diagonal(field, [d[0], d[2], d[1]] + d[3:])
    with pytest.raises(InvariantViolation, match="tame relation"):
        _check_tame_relations(Phi, swapped, chi.p, chi.t, one)
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i + 1 if i % 4 < 3 else i - 3] = one
    two_cycles = Matrix._trusted(field, rows)
    assert two_cycles**4 == Matrix.identity(field, n)
    with pytest.raises(InvariantViolation, match="n-cycle"):
        _check_tame_relations(two_cycles, Sigma, chi.p, chi.t, one)


def test_typed_build_raises_without_shapes(monkeypatch):
    # every typed chi passes the shape checks; were one to fail them, the
    # build must raise rather than hand the analysis a rep without shapes
    monkeypatch.setattr(induce, "_hyperbolic_shape", lambda perm, c, d: None)
    with pytest.raises(InvariantViolation):
        build_residual_rep(TameCharacter(8, 19, 17, 1), 13)


def _spy(monkeypatch, owner, name) -> list:
    """The argument tuples of every call of owner.name, which still runs."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_sign_pair_shares_one_checked_sigma(monkeypatch):
    # after the sign +1 build, the sign -1 build over the same field forms no
    # field power and returns a cold build's matrices; a diagonal from
    # another zeta is built and checked again
    chi_o, chi_s = TameCharacter(8, 19, 17, 1), TameCharacter(8, 19, 17, -1)
    ff.make_field.cache_clear()
    cold = build_residual_rep(chi_s, 13)
    ff.make_field.cache_clear()
    build_residual_rep(chi_o, 13)
    powers = _spy(monkeypatch, ff._PolyRing, "pow_pary")
    warm = build_residual_rep(chi_s, 13)
    assert powers == []
    assert warm.field is not cold.field
    assert (warm.Sigma, warm.Phi, warm.shape) == (cold.Sigma, cold.Phi, cold.shape)
    # zeta^2 has order 17 as well: its diagonal is formed, and its powers
    # d_i^(19 mod 17) and d_0^17 are formed for the relation checks
    zeta2 = induce._zeta_of_order(warm.field, 17) ** 2
    monkeypatch.setattr(induce, "_zeta_of_order", lambda field, t: zeta2)
    powers.clear()
    other = build_residual_rep(chi_s, 13)
    exps = [19**i % 17 for i in range(8)]
    assert sorted(e for _ring, _x, es in powers for e in es) == sorted(exps + [19 % 17] * 8 + [17])
    assert other.Sigma == Matrix.diagonal(other.field, [zeta2**e for e in exps])
    assert other.Sigma != warm.Sigma
    # a generator of order q - 1 fails Sigma^t = I after both valid builds
    monkeypatch.setattr(induce, "_zeta_of_order", lambda field, t: find_generator(field))
    for chi in (chi_o, chi_s):
        with pytest.raises(InvariantViolation):
            build_residual_rep(chi, 13)


def test_make_field_cache_clear_starts_cold(monkeypatch):
    # no module-level memo outlives the field cache: after cache_clear the
    # same build runs the modulus search and the generator search again, as
    # a new process or a benchmark item does
    searches = _spy(monkeypatch, ff, "_first_irreducible")
    norms = _spy(monkeypatch, ff, "_norm")
    counts = []
    for _ in range(2):
        ff.make_field.cache_clear()
        build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
        counts.append((len(searches), len(norms)))
    assert min(counts[0]) > 0
    assert counts[1] == (2 * counts[0][0], 2 * counts[0][1])


def test_witt_read_cross_checks_discriminant():
    # x^2 + y^2 over F_7 is anisotropic: (-1) * det is not a square
    rep = build_residual_rep(TameCharacter(2, 5, 3, 1), 7)
    with pytest.raises(InvariantViolation):
        _witt_data(rep, Matrix.identity(rep.field, 2), FormKind.SYMMETRIC)
