import hashlib
import json
import subprocess
import sys

import pytest

from tamerep import certs
from tamerep.cli import main
from tamerep.ff import make_field
from tamerep.linalg import Matrix
from tamerep.ortho import orthogonal_group, standard_space


def run_cli(argv):
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code
    raise AssertionError("cli did not exit")


def test_pairs_writes_expected_file(tmp_path):
    out = tmp_path / "pairs.json"
    assert run_cli(["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20",
                    "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    got = [(d["p"], d["t"]) for d in doc]
    assert (19, 17) in got and (59, 17) in got
    assert all(set(d["flags"].values()) == {True} for d in doc)


def test_pairs_odd_n_usage_error(capsys):
    assert run_cli(["pairs", "--n", "7", "--ell", "3", "--p-max", "60", "--t-max", "20"]) == 2


@pytest.mark.parametrize("ell", ["-3", "0", "1"])
def test_pairs_small_ell_usage_error(ell, capsys):
    # a negative --ell must not reach is_prime, whose BadInput would exit 3
    assert run_cli(["pairs", "--n", "8", "--ell", ell, "--p-max", "60", "--t-max", "20"]) == 2
    assert "ell must be an odd prime" in capsys.readouterr().err


def test_pairs_bound_above_sieve_limit(capsys):
    # a 10^11 bound would need a 100 GB sieve: exit 3 before allocating it
    assert run_cli(["pairs", "--n", "8", "--ell", "3", "--p-max", "100000000000",
                    "--t-max", "8"]) == 3
    assert "sieve" in capsys.readouterr().err


def test_pairs_empty_is_success(tmp_path):
    out = tmp_path / "pairs.json"
    assert run_cli(["pairs", "--n", "8", "--ell", "3", "--p-max", "10", "--t-max", "20",
                    "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == []


def test_cert_verify_roundtrip(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
                    "--ell", "13", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["k"] == 4
    assert doc["image_order"] == 136
    assert doc["form_kind"] == "symmetric"
    assert doc["epsilon"] == "+"
    assert doc["witt_index"] == 4
    assert doc["metacyclic"] is True
    assert {c["d"]: c["subgroup_order"] for c in doc["gamma_d_table"]} == {
        1: 136, 2: 68, 4: 34, 8: 17, 136: 1,
    }
    assert all(c["pass"] for c in doc["checks"])
    assert run_cli(["verify", str(out)]) == 0


def test_cert_s_type(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "-1",
                    "--ell", "13", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["form_kind"] == "alternating"
    assert doc["image_order"] == 272
    assert run_cli(["verify", str(out)]) == 0


def test_cert_precondition_exit3(capsys):
    assert run_cli(["cert", "--n", "8", "--p", "19", "--t", "3", "--sign", "+1",
                    "--ell", "13"]) == 3
    err = capsys.readouterr().err
    assert "precondition" in err


def test_verify_tampered_exit4(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
             "--ell", "13", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["image_order"] = 137
    out.write_text(json.dumps(doc))
    assert run_cli(["verify", str(out)]) == 4


def test_verify_tampered_matrix_exit4(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
             "--ell", "13", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["matrices"]["sigma"][0][0] = [5, 0, 0, 0]
    out.write_text(json.dumps(doc))
    assert run_cli(["verify", str(out)]) == 4


def test_verify_unknown_schema_exit2(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
             "--ell", "13", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["schema_version"] = "999"
    out.write_text(json.dumps(doc))
    assert run_cli(["verify", str(out)]) == 2


def test_verify_unknown_field_exit2(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
             "--ell", "13", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["extra"] = 1
    out.write_text(json.dumps(doc))
    assert run_cli(["verify", str(out)]) == 2


def test_verify_boolean_param_exit2(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "4", "--p", "5", "--t", "13", "--sign", "+1",
             "--ell", "3", "--output", str(out)])
    for key in ("n", "sign"):
        doc = json.loads(out.read_text())
        doc["params"][key] = True
        bad = tmp_path / f"bool-{key}.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["verify", str(bad)]) == 2


def test_verify_garbage_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["verify", str(bad)]) == 2
    assert run_cli(["verify", str(tmp_path / "missing.json")]) == 2


def test_cert_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["cert", "--n", "2", "--p", "5", "--t", "3", "--sign", "+1",
             "--ell", "7", "--output", str(a)])
    run_cli(["cert", "--n", "2", "--p", "5", "--t", "3", "--sign", "+1",
             "--ell", "7", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cert_deterministic_across_processes(tmp_path):
    # fresh interpreter per run: no shared caches, identical bytes demanded
    outs = []
    for name in ("x.json", "y.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tamerep", "cert", "--n", "2", "--p", "5",
             "--t", "3", "--sign", "-1", "--ell", "13", "--output", str(path)],
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_classify_cli(tmp_path, capsys):
    f3 = make_field(3, 1)
    v = standard_space(4, "+", f3)
    o4 = orthogonal_group(v, 1500)
    gens_file = tmp_path / "gens.json"
    gram_file = tmp_path / "gram.json"
    gens_file.write_text(json.dumps([m.to_coeff_lists() for m in o4.gens]))
    gram_file.write_text(json.dumps(v.gram.to_coeff_lists()))
    code = run_cli(["classify", str(gens_file), str(gram_file), "--p", "3",
                    "--promise-contains-omega"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "PO"


def test_classify_not_similitude_exit3(tmp_path):
    f3 = make_field(3, 1)
    v = standard_space(2, "+", f3)
    gens_file = tmp_path / "gens.json"
    gram_file = tmp_path / "gram.json"
    shear = Matrix(f3, [[1, 1], [0, 1]])
    gens_file.write_text(json.dumps([shear.to_coeff_lists()]))
    gram_file.write_text(json.dumps(v.gram.to_coeff_lists()))
    assert run_cli(["classify", str(gens_file), str(gram_file), "--p", "3",
                    "--promise-contains-omega"]) == 3


def test_classify_parse_error_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    gram = tmp_path / "gram.json"
    gram.write_text("[[ [0], [1]], [[1], [0]]]")
    assert run_cli(["classify", str(bad), str(gram), "--p", "3"]) == 2


def test_selftest_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tamerep", "selftest"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_seed_and_jobs_flags_accepted(tmp_path):
    out = tmp_path / "pairs.json"
    assert run_cli(["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20",
                    "--output", str(out), "--seed", "42", "--jobs", "2"]) == 0


def test_cert_verify_roundtrip_representative_tuples():
    # library-level round-trip across both signs, several ell and all three n;
    # the full-sweep version is covered representatively (large-k certificates
    # recompute identically but their gamma_d tables are expensive)
    for n, p, t, ell in [(2, 5, 3, 7), (2, 5, 3, 13), (4, 7, 5, 3), (8, 19, 17, 13)]:
        for sign in (1, -1):
            doc = certs.build_certificate(n, p, t, sign, ell)
            assert certs.verify_certificate(doc) == []
            assert json.loads(certs.canonical_dump(doc)) == doc


# SHA-256 of canonical_dump(build_certificate(n, p, t, sign, ell)): schema-1
# certificates must stay byte-identical, not merely verifiable.
PINNED_CERTS = {
    (8, 19, 17, 1, 13): "c07cf9ce31cc09e5126a94db04f426267d7147513a4503fb6269e9a59db50878",
    (4, 7, 5, 1, 3): "a4d60b0cdfa34bf1a79d87453e6a0b1804db1049147c6154fc10d54ef92b6832",
    (4, 7, 5, -1, 3): "39889599bda76b9a19144673a3c9b7db740dd32e79e5b7dbd5afd8a2de434ed9",
}


@pytest.mark.parametrize("params", sorted(PINNED_CERTS))
def test_certificate_bytes_pinned(params):
    text = certs.canonical_dump(certs.build_certificate(*params))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CERTS[params]


def test_atomic_write_leaves_no_temp(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "2", "--p", "5", "--t", "3", "--sign", "-1",
             "--ell", "7", "--output", str(out)])
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
    assert run_cli(["verify", str(out)]) == 0
