"""Acceptance battery: ten numbered criteria, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweep covers every
(n, p, t, ell, sign) with n in {2, 4, 8}, (p, t) from the pair search with
p, t <= 100, ell in {3, 5, 13} minus {p, t}, and both signs; residue fields
reach degree 96 over F_13.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from oracles import norm_map
from tamerep import induce
from tamerep.arith import divisors
from tamerep.chars import TameCharacter, admissible_arith
from tamerep.errors import InvariantViolation
from tamerep.ff import find_generator, is_square, make_field
from tamerep.groups import closure, gamma_d, normal_subgroups
from tamerep.induce import build_residual_rep, image_group, invariant_forms
from tamerep.linalg import Matrix
from tamerep.ortho import (
    GroupFlavor,
    QuadraticSpace,
    SquareClass,
    classify_subgroup,
    group_order,
    orthogonal_group,
    spinor_norm,
    standard_space,
    subgroup_where,
    witt_decompose,
)
from tamerep.sweep import commutant_phase, form_phase, group_phase, sweep_tuples


def _report(num: int, text: str, ok: bool):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------
# shared sweep fixtures


@pytest.fixture(scope="module")
def sweep_items():
    tuples = sweep_tuples(n_values=(2, 4, 8), ells=(3, 5, 13), p_max=100, t_max=100)
    t0 = time.perf_counter()
    items = form_phase(tuples)
    elapsed = time.perf_counter() - t0
    return items, elapsed


@pytest.fixture(scope="module")
def sweep_with_commutants(sweep_items):
    items, elapsed = sweep_items
    commutant_phase(items)
    return items


@pytest.fixture(scope="module")
def sweep_with_groups(sweep_with_commutants):
    items = sweep_with_commutants
    group_phase(items)
    return items


def test_criterion_1_duality_dichotomy(sweep_items):
    items, elapsed = sweep_items
    bad = [
        rec
        for _, rec in items
        if rec.form_dim != 1
        or rec.form_kind != ("symmetric" if rec.sign == 1 else "alternating")
    ]
    _report(
        1,
        f"invariant form is 1-dim and symmetric/alternating by sign on all "
        f"{len(items)} sweep members (max k = {max(r.k for _, r in items)}); "
        f"sweep took {elapsed:.1f}s < 60s; exceptions: {len(bad)}",
        not bad and elapsed < 60.0,
    )


def test_criterion_2_irreducibility(sweep_with_commutants):
    items = sweep_with_commutants
    bad = [rec for _, rec in items if rec.commutant != 1]
    _report(
        2,
        f"commutant dimension 1 (absolute irreducibility) on all {len(items)} "
        f"sweep members; exceptions: {len(bad)}",
        not bad,
    )


def test_criterion_3_image_structure(sweep_with_groups):
    items = sweep_with_groups
    bad = []
    for _, rec in items:
        expected = rec.n * rec.t * (1 if rec.sign == 1 else 2)
        if rec.image_order != expected or not rec.metacyclic or not rec.tame_relation:
            bad.append(rec)
    _report(
        3,
        f"image order n*t (O) / 2*n*t (S), metacyclic with conjugation exponent "
        f"p mod t (tame relation exact) on all {len(items)} members; "
        f"exceptions: {len(bad)}",
        not bad,
    )


def _dense_relations_hold(Phi, Sigma, p, t, sign):
    """Oracle for induce._check_tame_relations: dense inverse and powers."""
    n, fld = Phi.nrows, Phi.field
    return (
        Phi * Sigma * Phi.inverse() == Sigma**p
        and Sigma**t == Matrix.identity(fld, n)
        and Phi**n == Matrix.scalar(fld, sign, n)
    )


def test_relation_check_vs_dense_oracle(sweep_items, monkeypatch):
    # every sweep rep passes both; four mutants of each fail both: a zeta of
    # order q - 1, a flipped corner sign on Phi, two swapped Sigma entries,
    # and -Sigma, which keeps the tame relation but has order 2t
    check = induce._check_tame_relations
    checked = []

    def recorded(*args):
        checked.append(args)
        check(*args)

    monkeypatch.setattr(induce, "_check_tame_relations", recorded)
    monkeypatch.setattr(induce, "_zeta_of_order", lambda field, t: find_generator(field))
    items, _ = sweep_items
    for rep, _ in items:
        n, p, t, fld = rep.n, rep.chi.p, rep.chi.t, rep.field
        sign = fld.one if rep.chi.sign == 1 else -fld.one
        assert _dense_relations_hold(rep.Phi, rep.Sigma, p, t, sign)
        check(rep.Phi, rep.Sigma, p, t, sign)
        with pytest.raises(InvariantViolation):
            build_residual_rep(rep.chi, rep.ell)
        flipped = [list(row) for row in rep.Phi.rows]
        flipped[n - 1][0] = -flipped[n - 1][0]
        diag = [rep.Sigma.rows[i][i] for i in range(n)]
        diag[0], diag[1] = diag[1], diag[0]
        mutants = [checked.pop()[:2], (Matrix(fld, flipped), rep.Sigma), (rep.Phi, -rep.Sigma)]
        swapped = (rep.Phi, Matrix.diagonal(fld, diag))
        if n == 2:
            # the swapped diagonal is Phi Sigma Phi^-1, a valid rep
            assert _dense_relations_hold(*swapped, p, t, sign)
            check(*swapped, p, t, sign)
        else:
            mutants.append(swapped)
        for Phi, Sigma in mutants:
            assert not _dense_relations_hold(Phi, Sigma, p, t, sign)
            with pytest.raises(InvariantViolation):
                check(Phi, Sigma, p, t, sign)


def test_criterion_4_gamma_d():
    rep = build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
    img = image_group(rep, 300)
    normals = normal_subgroups(img)
    orders = [h.order for h in normals]
    ok = orders == [1, 17, 34, 68, 136]
    ok = ok and gamma_d(img, 8, normals).order == 17
    sigma_sub = closure([rep.Sigma], 40).byteset()
    for d in range(1, 136):
        if not sigma_sub <= gamma_d(img, d, normals).byteset():
            ok = False
            break
    ok = ok and gamma_d(img, 136, normals).order == 1
    _report(
        4,
        "normal subgroup orders of the (8,19,17,13) image are {1,17,34,68,136}; "
        "gamma_d(G,8) is the order-17 subgroup; gamma_d contains Z/17 for all "
        "d <= 135; gamma_d(G,136) is trivial",
        ok,
    )


def _exhaustive_counts_n2(field, gram):
    """Scan all 2x2 matrices: counts for O, SO, Omega, GO."""
    o = so = omega = go = 0
    v = QuadraticSpace(field, gram)
    q = field.q
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    m = Matrix(
                        field,
                        [
                            [field.element_at(a), field.element_at(b)],
                            [field.element_at(c), field.element_at(d)],
                        ],
                    )
                    lhs = m.transpose() * gram * m
                    lam = None
                    for i in range(2):
                        for j in range(2):
                            if gram.rows[i][j]:
                                lam = lhs.rows[i][j] / gram.rows[i][j]
                                break
                        if lam is not None:
                            break
                    if lam.is_zero() or lhs != gram.scale(lam):
                        continue
                    go += 1
                    if lam == field.one:
                        o += 1
                        if m.det() == field.one:
                            so += 1
                            if spinor_norm(m, v) is SquareClass.SQUARE:
                                omega += 1
    return {"O": o, "SO": so, "OMEGA": omega, "GO": go}


def _nonsquare_similitude(V):
    fld = V.field
    n = V.dim
    nu = fld.nonsquare()
    rep = witt_decompose(V)
    m = n // 2
    planes = m if rep.epsilon == "+" else m - 1
    rows = [[fld.zero] * n for _ in range(n)]
    for i in range(planes):
        rows[2 * i][2 * i] = nu
        rows[2 * i + 1][2 * i + 1] = fld.one
    if rep.epsilon == "-":
        base = Matrix(
            fld,
            [
                [V.gram.rows[n - 2][n - 2], V.gram.rows[n - 2][n - 1]],
                [V.gram.rows[n - 1][n - 1 - 1], V.gram.rows[n - 1][n - 1]],
            ],
        )
        found = None
        for a in range(fld.q):
            for b in range(fld.q):
                for c in range(fld.q):
                    for d in range(fld.q):
                        blk = Matrix(
                            fld,
                            [
                                [fld.element_at(a), fld.element_at(b)],
                                [fld.element_at(c), fld.element_at(d)],
                            ],
                        )
                        if blk.transpose() * base * blk == base.scale(nu):
                            found = blk
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        rows[n - 2][n - 2] = found.rows[0][0]
        rows[n - 2][n - 1] = found.rows[0][1]
        rows[n - 1][n - 2] = found.rows[1][0]
        rows[n - 1][n - 1] = found.rows[1][1]
    sim = Matrix(fld, rows)
    lhs = sim.transpose() * V.gram * sim
    assert lhs == V.gram.scale(nu)
    return sim


def test_criterion_5_group_orders():
    named = {
        (2, "+", 3): 4,
        (2, "-", 3): 8,
        (4, "+", 3): 1152,
        (4, "-", 3): 1440,
    }
    ok = True
    details = []
    for q in (3, 5):
        field = make_field(q, 1)
        for n in (2, 4):
            for eps in ("+", "-"):
                v = standard_space(n, eps, field)
                if n == 2:
                    counts = _exhaustive_counts_n2(field, v.gram)
                else:
                    o_grp = orthogonal_group(v, 40000)
                    so = [m for m in o_grp.elements if m.det() == field.one]
                    omega = [
                        m for m in so if spinor_norm(m, v) is SquareClass.SQUARE
                    ]
                    go_grp = closure(
                        list(o_grp.gens) + [_nonsquare_similitude(v)], 130000
                    )
                    counts = {
                        "O": o_grp.order,
                        "SO": len(so),
                        "OMEGA": len(omega),
                        "GO": go_grp.order,
                    }
                for flavor, got in counts.items():
                    want = group_order(n, eps, q, flavor)
                    if got != want:
                        ok = False
                        details.append(f"({n},{eps},{q},{flavor}): got {got}, want {want}")
                if (n, eps, q) in named and counts["O"] != named[(n, eps, q)]:
                    ok = False
    _report(
        5,
        "group_order matches independent enumeration (exhaustive scan at n=2, "
        "reflection closure at n=4) for q in {3,5}, both types, all four flavors"
        + ("" if ok else "; " + "; ".join(details)),
        ok,
    )


def test_criterion_6_spinor_norm():
    ok = True
    notes = []
    # homomorphism property: 1000 random pairs per enumerated O group
    for q in (3, 5):
        field = make_field(q, 1)
        for n in (2, 4):
            for eps in ("+", "-"):
                v = standard_space(n, eps, field)
                grp = orthogonal_group(v, 40000)
                rng = random.Random(10_000 * q + 100 * n + (eps == "+"))
                elems = list(grp.elements)
                cache = {}

                def sp(m, _v=v, _c=cache):
                    if m not in _c:
                        _c[m] = spinor_norm(m, _v)
                    return _c[m]

                for _ in range(1000):
                    a, b = rng.choice(elems), rng.choice(elems)
                    if sp(a * b) is not sp(a) * sp(b):
                        ok = False
                        notes.append(f"hom failed at ({n},{eps},{q})")
                        break
                # kernel index exactly 2 in SO
                so = [m for m in elems if m.det() == field.one]
                kernel = [m for m in so if sp(m) is SquareClass.SQUARE]
                if len(so) != 2 * len(kernel):
                    ok = False
                    notes.append(f"kernel index wrong at ({n},{eps},{q})")
    # small extra enumerated case from the invariants: n = 2, q = 7
    f7 = make_field(7, 1)
    for eps in ("+", "-"):
        v = standard_space(2, eps, f7)
        grp = orthogonal_group(v, 100)
        so = [m for m in grp.elements if m.det() == f7.one]
        kernel = [m for m in so if spinor_norm(m, v) is SquareClass.SQUARE]
        if len(so) != 2 * len(kernel):
            ok = False
            notes.append(f"kernel index wrong at (2,{eps},7)")
    # spinor class of -I on the F_3 hyperbolic plane is nonsquare
    f3 = make_field(3, 1)
    h = standard_space(2, "+", f3)
    if spinor_norm(Matrix.scalar(f3, -f3.one, 2), h) is not SquareClass.NONSQUARE:
        ok = False
        notes.append("-I spinor class wrong")
    _report(
        6,
        "spinor norm is a homomorphism on 1000 random pairs per enumerated group; "
        "kernel has index exactly 2 in SO; spinor(-I) on the F_3 hyperbolic "
        "plane is nonsquare" + ("" if ok else "; " + "; ".join(notes)),
        ok,
    )


def test_criterion_7_type_detection():
    rng = random.Random(77)
    ok = True
    for q in (3, 13):
        field = make_field(q, 1)
        for n in (2, 4, 6, 8):
            produced = 0
            while produced < 200:
                entries = [
                    [field.element(rng.randrange(q)) for _ in range(n)]
                    for _ in range(n)
                ]
                for i in range(n):
                    for j in range(i):
                        entries[i][j] = entries[j][i]
                g = Matrix(field, entries)
                if g.det().is_zero():
                    continue
                produced += 1
                v = QuadraticSpace(field, g)
                rep = witt_decompose(v)  # internal discriminant cross-check
                m = n // 2
                disc = g.det() if m % 2 == 0 else -g.det()
                if (rep.epsilon == "+") != is_square(disc):
                    ok = False
    rep_o = build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
    gram = invariant_forms(rep_o)[0]
    t = witt_decompose(QuadraticSpace(rep_o.field, gram))
    ok = ok and t.epsilon == "+" and t.witt_index == 4
    _report(
        7,
        "witt_decompose type agrees with the discriminant criterion on 200 random "
        "nondegenerate forms per (n, q), n in {2,4,6,8}, q in {3,13}; the O-type "
        "Gram at n=8 is split (epsilon +, witt index 4)",
        ok,
    )


def _norm_kernel_dlogs_fast(n, p, d):
    """Kernel of the norm to F_{p^d} by pure field iteration: walk powers of
    the generator, tracking the running norm value g^(e*j)."""
    field = make_field(p, n)
    g = find_generator(field)
    e = (field.q - 1) // (p**d - 1)
    ge = g**e
    kernel = []
    z = field.one
    for j in range(field.q - 1):
        if z == field.one:
            kernel.append(j)
        z = z * ge
    return kernel


def test_criterion_8_admissibility_oracle():
    checked = 0
    ok = True
    pairs = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79):
        n = 2
        while p**n <= 6561:
            pairs.append((p, n))
            n += 1
    for p, n in pairs:
        kernels = {d: _norm_kernel_dlogs_fast(n, p, d) for d in divisors(n) if d < n}
        # spot-check the fast kernel against norm_map on the smallest subfield
        d0 = min(kernels)
        field = make_field(p, n)
        g = find_generator(field)
        sub_one = make_field(p, d0).one
        for j in list(kernels[d0])[:3]:
            if norm_map(g**j, d0) != sub_one:
                ok = False
        for t in divisors(p**n - 1):
            arith = admissible_arith(n, p, t)
            oracle = not any(
                all(j % t == 0 for j in kernels[d]) for d in kernels
            )
            if arith != oracle:
                ok = False
            checked += 1
    _report(
        8,
        f"divisibility admissibility criterion matches the explicit norm-kernel "
        f"oracle exhaustively: {checked} (p, n, t) cases with p^n <= 6561",
        ok and checked > 500,
    )


def test_criterion_9_classifier():
    f3 = make_field(3, 1)
    v4 = standard_space(4, "+", f3)
    o4 = orthogonal_group(v4, 1500)
    so4 = subgroup_where(o4, lambda m: m.det() == f3.one)
    om4 = subgroup_where(so4, lambda m: spinor_norm(m, v4) is SquareClass.SQUARE)
    got = {
        "P_OMEGA": classify_subgroup(list(om4.gens), v4, True).label,
        "PSO": classify_subgroup(list(so4.gens), v4, True).label,
        "PO": classify_subgroup(list(o4.gens), v4, True).label,
    }
    v2 = standard_space(2, "+", f3)
    o2 = orthogonal_group(v2, 50)
    got["PGO"] = classify_subgroup(
        list(o2.gens) + [_nonsquare_similitude(v2)], v2, True
    ).label
    ok = all(k == v for k, v in got.items())
    # conjugation invariance under a random similitude (here: invertible base change)
    rng = random.Random(99)
    while True:
        h = Matrix(f3, [[f3.element(rng.randrange(3)) for _ in range(4)] for _ in range(4)])
        if not h.det().is_zero():
            break
    hinv = h.inverse()
    new_v = QuadraticSpace(f3, h.transpose() * v4.gram * h)
    for gens, want in [(om4.gens, "P_OMEGA"), (so4.gens, "PSO"), (o4.gens, "PO")]:
        if classify_subgroup([hinv * g * h for g in gens], new_v, True).label != want:
            ok = False
    _report(
        9,
        f"classifier labels: {got}; conjugation-invariant under a random base change",
        ok,
    )


def test_criterion_10_cli(tmp_path):
    env_cmd = [sys.executable, "-m", "tamerep"]
    cert = tmp_path / "cert.json"
    r1 = subprocess.run(
        env_cmd + ["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
                   "--ell", "13", "--output", str(cert)],
        capture_output=True, text=True, timeout=300,
    )
    r2 = subprocess.run(
        env_cmd + ["verify", str(cert)], capture_output=True, text=True, timeout=300
    )
    doc = json.loads(cert.read_text())
    doc["image_order"] = 137
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    r3 = subprocess.run(
        env_cmd + ["verify", str(tampered)], capture_output=True, text=True, timeout=300
    )
    pairs_file = tmp_path / "pairs.json"
    r4 = subprocess.run(
        env_cmd + ["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20",
                   "--output", str(pairs_file)],
        capture_output=True, text=True, timeout=300,
    )
    got_pairs = sorted((d["p"], d["t"]) for d in json.loads(pairs_file.read_text()))

    # independent brute force over the same range
    def prime(m):
        return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))

    brute = []
    for t in range(4, 21):
        if not prime(t) or t % 8 != 1 or t <= 3:
            continue
        for p in range(9, 61):
            if not prime(p) or p <= 3 or p == t:
                continue
            x, e = p % t, 1
            while x != 1:
                x = x * p % t
                e += 1
            if e == 8:
                brute.append((p, t))
    ok = (
        r1.returncode == 0
        and r2.returncode == 0
        and r3.returncode == 4
        and r4.returncode == 0
        and got_pairs == sorted(brute)
    )
    _report(
        10,
        f"cert->verify exits 0, tampered verify exits 4, pairs output equals the "
        f"independent brute-force list {sorted(brute)}",
        ok,
    )
