#!/usr/bin/env python3
"""Regenerate the benchmark's committed inputs and goldens under data/.

    python3 benchmarks/make_data.py

Run it from the root of a checkout; it imports tamerep from src/.  The
committed files were produced at the commit that introduced the benchmark,
so they pin that commit's behaviour: a later change that alters a sweep
record, a certificate byte, a classifier label or a pair list makes the
benchmark report failures.  Regenerate only when such a change is intended.

Each pool is cut so that three repeats of a pass fit a run of about fifteen
seconds; README.md says which cases are left out and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tamerep import arith, certs, ff, ortho, sweep  # noqa: E402

DATA = BENCH / "data"

# sweep: the acceptance tuples whose image order n*t is at most this bound.
# The twelve tuples above it (n = 8, t in {41, 73, 89, 97}) take 50 of the
# 62 s of a full sweep.
SWEEP_MAX_NT = 250

# cert: n = 4, both signs, image order <= 100 and field degree <= 4, plus
# the n = 8 tuple that the CLI timings in ROADMAP.md use.
CERT_MAX_ORDER = 100
CERT_MAX_K = 4
CERT_EXTRA = ((8, 19, 17, 1, 13),)

# ortho: the generator sets to classify, by space (n, q) and flavour, and the
# spaces whose full orthogonal group is closed from reflections.  O(4,3) is
# closed but not classified: classifying it costs 4.5 s a pass.
ORTHO_CLASSIFY = {
    (4, 3): ("SO", "OMEGA"),
    (2, 5): ("O", "SO", "OMEGA"),
    (2, 7): ("O", "SO", "OMEGA"),
    (2, 11): ("O", "SO", "OMEGA"),
    (2, 13): ("O", "SO", "OMEGA"),
}
ORTHO_CLOSE = ((4, 3),)
ORTHO_CAP = 40_000

# pairs: golden lists cover every query the workload can draw.
PAIRS_NS = (2, 4, 8)
PAIRS_ELLS = (3, 5, 13)
PAIRS_P_MAX = 2000
PAIRS_T_MAX = 600


def _write(name: str, doc) -> None:
    path = DATA / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path.relative_to(BENCH.parent)}")


def make_sweep() -> None:
    tuples = [t for t in sweep.sweep_tuples() if t[0] * t[2] <= SWEEP_MAX_NT]
    items = sweep.form_phase(tuples)
    sweep.commutant_phase(items)
    sweep.group_phase(items)
    records = [dataclasses.asdict(rec) for _, rec in items]
    _write("sweep", {"tuples": [list(t) for t in tuples], "records": records})


def make_cert() -> None:
    params = [
        (n, p, t, sign, ell)
        for n, p, t, ell in sweep.sweep_tuples()
        for sign in (1, -1)
        if n == 4
        and n * t * (1 if sign == 1 else 2) <= CERT_MAX_ORDER
        and arith.mult_order_mod(ell, t) <= CERT_MAX_K
    ]
    rows = []
    for n, p, t, sign, ell in params + list(CERT_EXTRA):
        text = certs.canonical_dump(certs.build_certificate(n, p, t, sign, ell))
        digest = hashlib.sha256(text.encode()).hexdigest()
        rows.append({"params": [n, p, t, sign, ell], "sha256": digest})
    _write("cert", {"items": rows})


def _ints(m) -> list:
    # prime fields only: one digit per entry, the form `tamerep classify` reads
    return [[e.coeffs[0] for e in row] for row in m.rows]


def make_ortho() -> None:
    classify, close = [], []
    for (n, q), flavors in ORTHO_CLASSIFY.items():
        fld = ff.make_field(q, 1)
        for eps in ("+", "-"):
            space = ortho.standard_space(n, eps, fld)
            o_grp = ortho.orthogonal_group(space, ORTHO_CAP)
            so = ortho.subgroup_where(o_grp, lambda m: m.det() == fld.one)
            omega = ortho.subgroup_where(
                so, lambda m: ortho.spinor_norm(m, space) is ortho.SquareClass.SQUARE
            )
            for flavor, grp in (("O", o_grp), ("SO", so), ("OMEGA", omega)):
                if flavor not in flavors:
                    continue
                if grp.order != ortho.group_order(n, eps, q, flavor):
                    raise AssertionError(f"{flavor}({eps}){n},{q} has order {grp.order}")
                placement = ortho.classify_subgroup(list(grp.gens), space, False)
                if not placement.omega_verified:
                    raise AssertionError(f"{flavor}({eps}){n},{q}: Omega not verified")
                classify.append(
                    {
                        "n": n, "q": q, "eps": eps, "flavor": flavor,
                        "gram": _ints(space.gram),
                        "gens": [_ints(g) for g in grp.gens],
                        "label": placement.label,
                    }
                )
            if (n, q) in ORTHO_CLOSE:
                close.append(
                    {
                        "n": n, "q": q, "eps": eps,
                        "gram": _ints(space.gram),
                        "order": o_grp.order,
                    }
                )
    _write("ortho", {"cap": ORTHO_CAP, "classify": classify, "close": close})


def make_pairs() -> None:
    golden = []
    for n in PAIRS_NS:
        for ell in PAIRS_ELLS:
            found = arith.search_pairs(n, ell, PAIRS_P_MAX, PAIRS_T_MAX)
            golden.append({"n": n, "ell": ell, "pairs": [[c.p, c.t] for c in found]})
    _write(
        "pairs",
        {"p_max": PAIRS_P_MAX, "t_max": PAIRS_T_MAX, "ns": list(PAIRS_NS),
         "ells": list(PAIRS_ELLS), "golden": golden},
    )


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for make in (make_pairs, make_ortho, make_cert, make_sweep):
        make()
