"""The benchmark's own tests: its oracles are live and its tracer is sound.

    python3 -m pytest benchmarks/tests

Each workload runs one cheap item twice: against the committed goldens,
where it must pass, and against a corrupted golden, where it must fail.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import fieldbench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tamerep import certs, ff, groups  # noqa: E402


def fail_ratio(items) -> float:
    records = run.run_items(items)
    return sum(r.error is not None for r in records) / len(records)


def pick(wl, label):
    return [item for item in wl.plan(0) if item.label == label][:1]


def test_sweep_golden_is_checked():
    wl = workloads.Sweep(seed=1)
    items = [wl._item((2, 19, 5, 3))]
    assert fail_ratio(items) == 0
    wl.golden[(2, 19, 5, 3, 1)]["k"] += 1
    assert fail_ratio(items) > 0


def test_cert_golden_is_checked():
    wl = workloads.Cert(seed=1)
    assert fail_ratio(pick(wl, "(4, 47, 5, 1, 3)")) == 0
    wl.items = [(params, "0" * 64) for params, _ in wl.items]
    assert fail_ratio(pick(wl, "(4, 47, 5, 1, 3)")) > 0


def test_ortho_golden_is_checked():
    wl = workloads.Ortho(seed=1)
    label = "classify SO-(2,7)"
    assert fail_ratio(pick(wl, label)) == 0
    case = next(c for c in wl.classify if (c["flavor"], c["eps"], c["q"]) == ("SO", "-", 7))
    case["label"] = "PO"
    assert fail_ratio(pick(wl, label)) > 0


def test_pairs_golden_and_count_are_checked():
    wl = workloads.Pairs(seed=1)
    wl.P_RANGE, wl.T_RANGE = (200, 300), (100, 150)  # cheap queries
    items = wl.plan(0)[:3]
    assert fail_ratio(items) == 0
    for key in wl.golden:
        wl.golden[key] = [[2, 3]] + wl.golden[key]
    assert fail_ratio(items) == 1


def test_pairs_independent_count_matches_search():
    from tamerep.arith import search_pairs

    primes = workloads._primes(400)
    for n in (2, 4, 8):
        assert workloads.count_pairs(primes, n, 5, 400, 200) == len(search_pairs(n, 5, 400, 200))


def test_ortho_base_change_is_inverse_pair():
    import random

    h, h_inv = workloads._base_change(random.Random(3), 4, 5)
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert workloads._matmul(h, h_inv, 5) == ident


def test_field_kernel_check_catches_a_wrong_product(monkeypatch):
    import random

    fld = ff.make_field(13, 16)
    assert fieldbench.mul_us(fld, random.Random(5))[1] == 0
    monkeypatch.setattr(ff.FieldElement, "__mul__", lambda a, b: a)
    assert fieldbench.mul_us(fld, random.Random(5))[1] > 0


def test_tracer_wraps_imported_names_and_restores_them():
    original = groups.normal_subgroups
    fld = ff.make_field(5, 1)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert certs.normal_subgroups is groups.normal_subgroups is not original
        tr.begin_item("probe")
        grp = groups.closure([certs.json_to_matrix(fld, [[0, 1], [1, 0]])], 10)
        tr.end_item(1.0)
    finally:
        tr.uninstall()
    assert certs.normal_subgroups is original
    assert grp.order == 2
    assert tr.count("groups.closure") == 1
    assert tr.stats["groups.closure.size"] == 2
    names = [s["name"] for s in tr.span_records()]
    assert names == ["certs.json_to_matrix", "groups.closure"]
    closure = tr.span_records()[1]
    assert closure["parent"] is None and closure["item"] == "probe"
    metrics = tracer.layer_metrics(tr)
    assert metrics["groups.closure.yield"][0] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
