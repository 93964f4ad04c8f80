import ast
import functools
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamerep
from oracles import canonical_json
from tamerep import arith, certs, chars, cli, errors, groups, induce, linalg, ortho, sweep
from tamerep.errors import InvariantViolation, TooLarge
from tamerep.cli import main
from tamerep.ff import make_field
from tamerep.groups import NORMAL_SUBGROUP_CAP
from tamerep.linalg import Matrix
from tamerep.ortho import orthogonal_group, standard_space, subgroup_where


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


def test_pairs_bytes_vs_json_oracle(tmp_path):
    out = tmp_path / "pairs.json"
    assert run_cli(["pairs", "--n", "8", "--ell", "3", "--p-max", "2000", "--t-max", "600",
                    "--output", str(out)]) == 0
    found = arith.search_pairs(8, 3, 2000, 600)
    assert found
    assert out.read_text() == canonical_json([cand.to_json() for cand in found])


@pytest.mark.parametrize("output", ["file", "stdout"])
def test_pairs_empty_bytes(tmp_path, capsys, output):
    # no pair up to p = 10: the streamed text is still canonical_dump's
    argv = ["pairs", "--n", "8", "--ell", "3", "--p-max", "10", "--t-max", "20"]
    out = tmp_path / "pairs.json"
    assert run_cli(argv + (["--output", str(out)] if output == "file" else [])) == 0
    text = out.read_text() if output == "file" else capsys.readouterr().out
    assert text == canonical_json([]) == certs.canonical_dump([]) == "[]\n"


def test_pairs_stdout_bytes_vs_json_oracle(capsys):
    assert run_cli(["pairs", "--n", "8", "--ell", "3", "--p-max", "2000", "--t-max", "600"]) == 0
    found = arith.search_pairs(8, 3, 2000, 600)
    assert capsys.readouterr().out == canonical_json([cand.to_json() for cand in found])


def test_pairs_odd_n_usage_error(capsys):
    assert run_cli(["pairs", "--n", "7", "--ell", "3", "--p-max", "60", "--t-max", "20"]) == 2


@pytest.mark.parametrize("ell", ["-3", "0", "1"])
def test_pairs_small_ell_usage_error(ell, capsys):
    # a negative --ell must not reach is_prime, whose BadInput names no flag
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


def test_cert_unfactorable_q_minus_1_exit3(capsys):
    # (16,2281,257,-1,3) lives over F_3^256; the modulus search takes about
    # a second, then the rho budget stops factorize(3^128 + 1) with TooLarge
    assert run_cli(["cert", "--n", "16", "--p", "2281", "--t", "257", "--sign", "-1",
                    "--ell", "3"]) == 3
    assert "rho steps" in capsys.readouterr().err


def _run_module(argv, timeout=30):
    """tamerep in a fresh interpreter; a hang fails the test at the timeout."""
    return subprocess.run(
        [sys.executable, "-m", "tamerep", *argv], capture_output=True, text=True, timeout=timeout
    )


def test_cert_huge_n_exits_without_building_p_to_the_n():
    # 3^(10^8) has 158 million bits: built in full, it takes minutes
    proc = _run_module(["cert", "--n", "100000000", "--p", "3", "--t", "5", "--sign", "1",
                        "--ell", "7"])
    assert proc.returncode == 3, proc.stderr
    assert "congruent to 1 mod n" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # k = 2: the parent of this bound wrote 132 MB after 22.6 s
        ["--n", "1008", "--p", "1031", "--t", "1009", "--sign", "1", "--ell", "2017"],
        # k = 2, 33 MB before the bound
        ["--n", "502", "--p", "523", "--t", "503", "--sign", "1", "--ell", "2011"],
        # k = 502, refused before the field size is checked
        ["--n", "502", "--p", "523", "--t", "503", "--sign", "1", "--ell", "2017"],
    ],
)
def test_cert_above_coefficient_cap_exit3(argv, tmp_path):
    out = tmp_path / "cert.json"
    proc = _run_module(["cert", *argv, "--output", str(out)])
    assert proc.returncode == 3, proc.stderr
    assert f"exceeds {induce.REP_COEFF_CAP}" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_coefficient_cap_checked_before_the_field(monkeypatch):
    # (8,19,17,+1,13) has n * n * k = 256: the cap admits it at 256 and
    # refuses it at 255 before make_field or any matrix is reached
    monkeypatch.setattr(induce, "REP_COEFF_CAP", 256)
    assert certs.build_certificate(8, 19, 17, 1, 13)["params"]["k"] == 4
    monkeypatch.setattr(induce, "REP_COEFF_CAP", 255)
    for name in ("make_field", "Matrix"):
        monkeypatch.setattr(induce, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    with pytest.raises(TooLarge, match="n \\* n \\* k = 256"):
        certs.build_certificate(8, 19, 17, 1, 13)


def test_coefficient_cap_admits_known_tuples():
    tuples = sweep.sweep_tuples() + [(8, 37, 89, 3), (20, 1693, 241, 3), (20, 71, 661, 3),
                                     (16, 2281, 257, 3)]
    assert max(n * n * arith.mult_order_mod(ell, t) for n, p, t, ell in tuples) == 65_536
    assert induce.REP_COEFF_CAP >= 65_536


def test_verify_huge_n_exits_without_building_p_to_the_n(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
                    "--ell", "13", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["params"]["n"] = 10**8
    out.write_text(json.dumps(doc))
    proc = _run_module(["verify", str(out)])
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "congruent to 1 mod n" in proc.stderr


def test_verify_above_coefficient_cap_exit3(tmp_path):
    # a certificate whose params cert refuses with TooLarge: verify exits 3
    # as cert does, where it had reported a mismatch (exit 4)
    out = tmp_path / "cert.json"
    assert run_cli(["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "+1",
                    "--ell", "13", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["params"].update(n=1008, p=1031, t=1009, ell=2017)
    out.write_text(json.dumps(doc))
    proc = _run_module(["verify", str(out)])
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert f"exceeds {induce.REP_COEFF_CAP}" in proc.stderr
    assert "MISMATCH" not in proc.stderr


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_code_table_pinned():
    # cli.EXIT_CODES is the one map from exception to exit code; a new error
    # class of the library, or a code that moves, changes this dict
    found = [errors.ToolkitError, *_subclasses(errors.ToolkitError), InvariantViolation]
    got = {
        cls.__name__: cli.exit_code(cls("x")) for cls in found if cls.__module__ == "tamerep.errors"
    }
    assert got == {
        "ToolkitError": 3,
        "NonPrimeCharacteristic": 3,
        "DegreeZero": 2,
        "SizeOverflow": 3,
        "ZeroElement": 2,
        "SingularMatrix": 2,
        "NotCoprime": 3,
        "BadInput": 2,
        "BadBounds": 2,
        "BadCharacter": 3,
        "BadType": 3,
        "BadResidueChar": 3,
        "CapExceeded": 3,
        "SingularGenerator": 2,
        "TooLarge": 3,
        "DegenerateForm": 2,
        "OddCharacteristicRequired": 2,
        "NotOrthogonal": 2,
        "BadParams": 2,
        "NotSimilitude": 3,
        "PromiseUnverifiable": 3,
        "CertificateFormatError": 2,
        "InvariantViolation": 1,
    }
    assert [cli.exit_code(exc) for exc in (ValueError("x"), TypeError("x"))] == [1, 1]


def test_subcommands_catch_nothing():
    # main alone maps exceptions to codes; selftest catches only to report a
    # crashed case as a failed one
    tree = ast.parse(Path(cli.__file__).read_text())
    catching = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        and any(isinstance(node, ast.ExceptHandler) for node in ast.walk(fn))
    }
    assert catching == {"cmd_selftest"}


_CERT_PARAMS = {"n": 8, "p": 19, "t": 17, "sign": 1, "ell": 13}


def _cert_argv(params):
    return ["cert", *(arg for key, val in params.items() for arg in (f"--{key}", str(val)))]


@pytest.mark.parametrize(
    "key, value, code, message",
    [
        ("n", 10**8, 3, "error: precondition failed: t is not congruent to 1 mod n"),
        ("p", 4, 3, "error: precondition failed: p must be prime, got 4"),
        ("ell", 9, 3, "error: precondition failed: 9 is not prime"),
        ("ell", -3, 2, "error: is_prime expects a non-negative integer, got -3"),
    ],
    ids=["huge_n", "p_4", "ell_9", "ell_negative"],
)
def test_verify_exits_as_cert_does(tmp_path, capsys, key, value, code, message):
    # a certificate edited to params that cannot be built fails verify with
    # cert's code and message on those params, not a mismatch
    out = tmp_path / "cert.json"
    assert run_cli(_cert_argv(_CERT_PARAMS) + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["params"][key] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(_cert_argv({**_CERT_PARAMS, key: value})) == code
    assert capsys.readouterr().err == message + "\n"
    assert run_cli(["verify", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"


def test_rebuild_invariant_violation_is_internal(tmp_path, capsys, monkeypatch):
    # a bug in the build exits 1 from verify as from cert, not 4
    out = tmp_path / "cert.json"
    assert run_cli(_cert_argv(_CERT_PARAMS) + ["--output", str(out)]) == 0

    def broken(*args):
        raise InvariantViolation("tame relation failed")

    monkeypatch.setattr(induce, "_check_tame_relations", broken)
    capsys.readouterr()
    for argv in (_cert_argv(_CERT_PARAMS), ["verify", str(out)]):
        assert run_cli(argv) == 1, argv
        assert capsys.readouterr().err == "internal error: tame relation failed\n"


def test_cert_large_ell(tmp_path):
    # F_10000019^2: the generator search used to walk all ell - 1 multiples
    # c * x of its first candidate, 85 s; the bytes are that search's
    out = tmp_path / "cert.json"
    start = time.perf_counter()
    assert run_cli(["cert", "--n", "2", "--p", "5", "--t", "3", "--sign", "+1",
                    "--ell", "10000019", "--output", str(out)]) == 0
    assert time.perf_counter() - start < 30
    digest = "ced36a59bb05283a91a718667194a2fa87044ab1714f5c6ae1eef7cc4963afda"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert run_cli(["verify", str(out)]) == 0


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


@pytest.mark.parametrize(
    "dilate, label, images",
    [
        (False, "PO", []),
        (True, "PGO", ["  gen[4]: nonsquare, +1, None"]),
    ],
)
def test_classify_cli_extension_field_without_promise(tmp_path, capsys, dilate, label, images):
    # O+(2,9) and GO+(2,9): the Omega count runs on F_9 matrices
    f9 = make_field(3, 2)
    v = standard_space(2, "+", f9)
    gens = list(orthogonal_group(v, 100).gens)
    if dilate:
        gens.append(Matrix(f9, [[f9.nonsquare(), f9.zero], [f9.zero, f9.one]]))
    gens_file = tmp_path / "gens.json"
    gram_file = tmp_path / "gram.json"
    gens_file.write_text(json.dumps([m.to_coeff_lists() for m in gens]))
    gram_file.write_text(json.dumps(v.gram.to_coeff_lists()))
    code = run_cli(["classify", str(gens_file), str(gram_file), "--p", "3", "--k", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        label,
        "spinor_norm(-I) trivial: True",
        "contains-Omega verified: True",
        "generator char images (similitude, det_part, spinor):",
        "  gen[0]: square, -1, square",
        "  gen[1]: square, -1, square",
        "  gen[2]: square, -1, square",
        "  gen[3]: square, -1, nonsquare",
        *images,
    ]


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


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cols, code", [(1, 3), (2, 3), (5, 3), (None, 2)])
def test_classify_generator_shape_exit_codes(tmp_path, k, cols, code):
    # a generator with the form's row count and another column count is not
    # a similitude (exit 3; one column crashed with exit 1 before); another
    # row count is a shape mismatch (exit 2)
    f = make_field(3, k)
    v = standard_space(4, "+", f)
    rows = [[1] * cols for _ in range(4)] if cols else [[1, 0, 0, 0]] * 3
    gens_file = tmp_path / "gens.json"
    gram_file = tmp_path / "gram.json"
    gens_file.write_text(json.dumps([rows]))
    gram_file.write_text(json.dumps(v.gram.to_coeff_lists()))
    for promise in ([], ["--promise-contains-omega"]):
        argv = ["classify", str(gens_file), str(gram_file), "--p", "3", "--k", str(k)]
        assert run_cli(argv + promise) == code, (cols, promise)


def test_classify_parse_error_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    gram = tmp_path / "gram.json"
    gram.write_text("[[ [0], [1]], [[1], [0]]]")
    assert run_cli(["classify", str(bad), str(gram), "--p", "3"]) == 2


@pytest.mark.parametrize(
    "gram, code",
    [
        ("[[[0], [1]], [[1], [0]]]", 0),
        ("[[[0], [1.9]], [[1], [0]]]", 2),
        ("[[[0], [true]], [[1], [0]]]", 2),
        ("[[[0], true], [[1], [0]]]", 2),
    ],
)
def test_classify_non_integer_digit_exit2(tmp_path, capsys, gram, code):
    # a digit of 1.9 was truncated to 1 and true read as 1, and the form
    # classified with exit 0
    files = [tmp_path / "gens.json", tmp_path / "gram.json"]
    files[0].write_text("[[[[1], [0]], [[0], [1]]]]")
    files[1].write_text(gram)
    assert run_cli(["classify", *map(str, files), "--p", "3"]) == code
    if code:
        assert "error: not a matrix over" in capsys.readouterr().err


@pytest.mark.parametrize("promise", [[], ["--promise-contains-omega"]])
def test_classify_no_generators_exit2(tmp_path, capsys, promise):
    # with the promise, [] exited 0 and printed P_OMEGA
    files = [tmp_path / "gens.json", tmp_path / "gram.json"]
    files[0].write_text("[]")
    files[1].write_text("[[[0], [1]], [[1], [0]]]")
    assert run_cli(["classify", *map(str, files), "--p", "3", *promise]) == 2
    assert capsys.readouterr().err == "error: need at least one generator\n"


_UNPARSABLE = {
    "not_utf8": b"\xff\xfe[]",
    "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", sorted(_UNPARSABLE))
@pytest.mark.parametrize("position", [0, 1])
def test_classify_unparsable_input_exit2(tmp_path, capsys, content, position):
    # a decode error or a recursion error while parsing is a parse error, not
    # an internal one (both exited 1 before)
    files = [tmp_path / "gens.json", tmp_path / "gram.json"]
    files[0].write_text("[[[1, 0], [0, 1]]]")
    files[1].write_text("[[0, 1], [1, 0]]")
    files[position].write_bytes(_UNPARSABLE[content])
    assert run_cli(["classify", *map(str, files), "--p", "3"]) == 2
    assert "error: input is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", sorted(_UNPARSABLE))
def test_verify_unparsable_certificate_exit2(tmp_path, capsys, content):
    bad = tmp_path / "cert.json"
    bad.write_bytes(_UNPARSABLE[content])
    assert run_cli(["verify", str(bad)]) == 2
    assert "error: certificate is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["-3", "-1", "0", "1"])
def test_classify_small_p_usage_error(p, tmp_path, capsys):
    # a --p below 2 must not reach is_prime, whose BadInput names no flag
    gens = tmp_path / "gens.json"
    gens.write_text("[[[[1]]]]")
    assert run_cli(["classify", str(gens), str(gens), "--p", p]) == 2
    assert "--p must be prime" in capsys.readouterr().err


def test_classify_strong_pseudoprime_p_usage_error(tmp_path, capsys):
    # psi_12 and psi_13 pass Miller-Rabin to all twelve bases; the strong
    # Lucas test rejects both, so --p is a usage error as for any composite
    gens = tmp_path / "gens.json"
    gram = tmp_path / "gram.json"
    gens.write_text("[[[[1], [0]], [[0], [1]]]]")
    gram.write_text("[[[0], [1]], [[1], [0]]]")
    psi_12 = str(399165290221 * 798330580441)
    psi_13 = str(1287836182261 * 2575672364521)
    for psi in (psi_12, psi_13):
        assert run_cli(["classify", str(gens), str(gram), "--p", psi]) == 2
        assert "--p must be prime" in capsys.readouterr().err


def test_verify_type_confused_leaf_exit4(tmp_path):
    # false == 0, true == 1 and 1.0 == 1 in Python, but not in the document
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "4", "--p", "47", "--t", "13", "--sign", "+1",
             "--ell", "5", "--output", str(out)])
    assert run_cli(["verify", str(out)]) == 0
    good = json.loads(out.read_text())
    bad = tmp_path / "bad.json"
    for path, value in [(("gram", 0, 0, 0), False), (("metacyclic",), 1),
                        (("witt_index",), 2.0), (("checks", 0, "pass"), 1)]:
        doc = json.loads(json.dumps(good))
        _set(doc, path, value)
        assert doc == good, path
        bad.write_text(json.dumps(doc))
        assert run_cli(["verify", str(bad)]) == 4, path


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
    # library-level round-trip on every sweep tuple and two tuples off the
    # sweep, both signs; the image analysis enumerates no group, so the whole
    # sweep is affordable
    for n, p, t, ell in sweep.sweep_tuples() + [(2, 5, 3, 7), (2, 5, 3, 13)]:
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


def _sweep_records(tuples):
    items = sweep.form_phase(tuples)
    sweep.commutant_phase(items)
    sweep.group_phase(items)
    return [rec for _, rec in items]


def _assert_pinned_and_sweep_unchanged(want):
    for params, digest in PINNED_CERTS.items():
        text = certs.canonical_dump(certs.build_certificate(*params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert _sweep_records([(8, 19, 17, 13)]) == want


def test_analysis_forms_no_dense_power_or_inverse(monkeypatch):
    # the build reads the relations off the monomial shapes, and certs and
    # sweep no longer check them again with dense matrix powers
    want = _sweep_records([(8, 19, 17, 13)])

    def dense(*args, **kwargs):
        raise AssertionError("a dense matrix power or inverse was formed")

    monkeypatch.setattr(Matrix, "__pow__", dense)
    monkeypatch.setattr(Matrix, "inverse", dense)
    _assert_pinned_and_sweep_unchanged(want)


def test_analysis_no_n_squared_solve_or_witt_decomposition(monkeypatch):
    # the forms, the commutant and the Witt data are read off the monomial
    # shapes that the build keeps, so no general solver runs
    want = _sweep_records([(8, 19, 17, 13)])

    def general(*args, **kwargs):
        raise AssertionError("a general solver ran on a representation with shapes")

    names = (
        "sparse_nullspace", "invariant_forms_of", "commutant_dim_of", "witt_decompose", "nullspace",
    )
    # patched at every module that binds the name, including by-name imports
    for module in (linalg, induce, ortho, certs, sweep):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, general)
    _assert_pinned_and_sweep_unchanged(want)


def test_analysis_enumerates_no_image_group(monkeypatch):
    # the image order, Gamma^d table and metacyclic witness are read off the
    # checked tame shapes, so cert and the sweep close no group
    want = _sweep_records([(8, 19, 17, 13)])

    def enumerate_group(*args, **kwargs):
        raise AssertionError("an image group was enumerated")

    names = ("closure", "normal_subgroups", "gamma_d", "is_metacyclic_tn", "image_group")
    for module in (tamerep, groups, linalg, induce, ortho, certs, sweep, cli):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, enumerate_group)
    _assert_pinned_and_sweep_unchanged(want)


def test_one_multiplicative_order_per_build(monkeypatch):
    # k = ord_t(ell) is the one order computed; the type gate, image_analysis
    # and audit_adz test ord_t(p) = n by powers alone
    calls = []

    def counted(a, m):
        calls.append((a, m))
        return original(a, m)

    original = arith.mult_order_mod
    for module in (arith, chars, induce, groups, certs, sweep):
        if getattr(module, "mult_order_mod", None) is original:
            monkeypatch.setattr(module, "mult_order_mod", counted)
    for sign in (1, -1):
        calls.clear()
        rep = induce.build_residual_rep(chars.TameCharacter(8, 19, 17, sign), 13)
        assert induce.image_analysis(rep).metacyclic
        assert calls == [(13, 17)]
        calls.clear()
        certs.build_certificate(8, 19, 17, sign, 13)
        assert calls == [(13, 17)]


@pytest.mark.parametrize("sign", ["+1", "-1"])
def test_cert_above_normal_subgroup_cap(sign, tmp_path):
    # image orders 13,220 and 26,440 exceed NORMAL_SUBGROUP_CAP, which bounds
    # only the enumerating functions now
    out = tmp_path / "cert.json"
    assert run_cli(["cert", "--n", "20", "--p", "71", "--t", "661", "--sign", sign,
                    "--ell", "3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["image_order"] == (13_220 if sign == "+1" else 26_440) > NORMAL_SUBGROUP_CAP
    assert doc["metacyclic"] and all(c["pass"] for c in doc["checks"])
    assert run_cli(["verify", str(out)]) == 0


def test_atomic_write_leaves_no_temp(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(["cert", "--n", "2", "--p", "5", "--t", "3", "--sign", "-1",
             "--ell", "7", "--output", str(out)])
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
    assert run_cli(["verify", str(out)]) == 0


_WRITERS = {
    "pairs": ["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20"],
    "cert": ["cert", "--n", "4", "--p", "5", "--t", "13", "--sign", "1", "--ell", "3"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("command", ["pairs", "cert", "classify", "verify", "selftest"])
def test_unwritable_output_exit2(tmp_path, capsys, command):
    # a missing directory fails before the temporary file exists, a directory
    # in place of the file fails when the temporary file replaces it; both
    # exited 1 before, and verify and selftest ignored --output
    if command == "classify":
        f3 = make_field(3, 1)
        v = standard_space(2, "+", f3)
        gens, gram = tmp_path / "gens.json", tmp_path / "gram.json"
        gens.write_text(json.dumps([m.to_coeff_lists() for m in orthogonal_group(v, 100).gens]))
        gram.write_text(json.dumps(v.gram.to_coeff_lists()))
        argv = ["classify", str(gens), str(gram), "--p", "3"]
    elif command == "verify":
        cert = tmp_path / "cert.json"
        assert run_cli(_WRITERS["cert"] + ["--output", str(cert)]) == 0
        argv = ["verify", str(cert)]
    else:
        argv = _WRITERS[command]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "taken").mkdir()
    for target in (out_dir / "missing" / "out.json", out_dir / "taken"):
        capsys.readouterr()
        assert run_cli(argv + ["--output", str(target)]) == 2, target
        assert capsys.readouterr().err.startswith("error: cannot write output: "), target
        assert sorted(p.name for p in out_dir.iterdir()) == ["taken"], target
    target = out_dir / "out.txt"
    assert run_cli(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in out_dir.iterdir()) == ["out.txt", "taken"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == target.read_text()


def test_verify_and_selftest_output_keep_exit_codes(tmp_path, capsys, monkeypatch):
    # a mismatch still exits 4 with its lines on stderr and writes no file;
    # a failed or crashed selftest case still exits 1, its line in the file
    cert = tmp_path / "cert.json"
    assert run_cli(_WRITERS["cert"] + ["--output", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    doc["image_order"] += 1
    cert.write_text(json.dumps(doc))
    out = tmp_path / "verify.txt"
    capsys.readouterr()
    assert run_cli(["verify", str(cert), "--output", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("MISMATCH: 1 field(s) differ") and captured.out == ""
    assert not out.exists()
    cases = [("ok", lambda: True), ("bad", lambda: False), ("crash", lambda: 1 // 0)]
    monkeypatch.setattr(cli, "_selftest_cases", lambda: cases)
    out = tmp_path / "selftest.txt"
    assert run_cli(["selftest", "--output", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == (
        "PASS ok\nFAIL bad\nFAIL crash: integer division or modulo by zero\n"
    )


# ---------------------------------------------------------------------------
# Fuzzing in process: malformed and mutated inputs to classify and verify may
# only exit with a documented code, never 1 (internal error)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 100),
    st.sampled_from([2**63, -(2**63), 10**30]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, leaves and containers, as key paths."""
    out = [prefix] if prefix else []
    if isinstance(doc, dict):
        for k, v in doc.items():
            out += _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out += _paths(v, prefix + (i,))
    return out


def _leaves(doc, prefix=()):
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _leaves(v, prefix + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _leaves(v, prefix + (i,))]
    return [prefix]


def _set(doc, path, value):
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


def _mutate(data, doc):
    """One structural mutation: replace, delete or duplicate a position."""
    paths = _paths(doc)
    if not paths:
        return data.draw(_JSON)
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if op == "replace":
        # a small integer half of the time, which keeps most documents well formed
        parent[path[-1]] = data.draw(st.integers(-3, 10) | _JSON)
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], json.loads(json.dumps(parent[path[-1]])))
    return doc


@functools.lru_cache(maxsize=None)
def _classify_bases():
    """(generators, Gram, p, k) as the CLI reads them: SO+(4,3); O+(2,5)
    with a nonsquare-similitude dilation; O-(2,9)."""
    f3 = make_field(3, 1)
    v = standard_space(4, "+", f3)
    so = subgroup_where(orthogonal_group(v, 2000), lambda m: m.det() == f3.one)
    bases = [(list(so.gens), v, 3, 1)]
    f5 = make_field(5, 1)
    v = standard_space(2, "+", f5)
    dil = Matrix(f5, [[f5.nonsquare(), f5.zero], [f5.zero, f5.one]])
    bases.append((list(orthogonal_group(v, 100).gens) + [dil], v, 5, 1))
    f9 = make_field(3, 2)
    v = standard_space(2, "-", f9)
    bases.append((list(orthogonal_group(v, 100).gens), v, 3, 2))
    return [
        (json.dumps([g.to_coeff_lists() for g in gens]), json.dumps(v.gram.to_coeff_lists()), p, k)
        for gens, v, p, k in bases
    ]


def _classify_text(data, valid: str) -> str:
    how = data.draw(st.sampled_from(["valid", "valid", "mutated", "mutated", "json", "text"]))
    if how == "text":
        return data.draw(st.text(max_size=30))
    if how == "json":
        return json.dumps(data.draw(_JSON))
    doc = json.loads(valid)
    if how == "mutated":
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_classify_fuzz_exit_codes(tmp_path_factory, data):
    gens_doc, gram_doc, p, k = data.draw(st.sampled_from(_classify_bases()))
    d = tmp_path_factory.mktemp("classify")
    gens, gram = d / "gens.json", d / "gram.json"
    gens.write_text(_classify_text(data, gens_doc))
    gram.write_text(_classify_text(data, gram_doc))
    argv = ["classify", str(gens), str(gram)]
    # the input's own field half of the time
    argv += ["--p", str(data.draw(st.just(p) | st.sampled_from([2, 3, 5, 7, 9, 4, 1, 0, -1, -3])))]
    argv += ["--k", str(data.draw(st.just(k) | st.sampled_from([1, 2, 0, -1, 10**9])))]
    if data.draw(st.booleans()):
        argv.append("--promise-contains-omega")
    assert run_cli(argv) in (0, 2, 3), argv


@functools.lru_cache(maxsize=None)
def _small_certificate() -> str:
    return certs.canonical_dump(certs.build_certificate(4, 47, 13, 1, 5))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_fuzz_leaf_mutations(tmp_path_factory, data):
    text = _small_certificate()
    doc = json.loads(text)
    leaves = _leaves(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _set(doc, data.draw(st.sampled_from(leaves)), data.draw(_SCALARS))
    path = tmp_path_factory.mktemp("verify") / "cert.json"
    path.write_text(json.dumps(doc))
    code = run_cli(["verify", str(path)])
    assert code in (0, 2, 3, 4)
    # json.dumps tells true from 1 and 1.0 from 1, which == does not
    unchanged = json.dumps(doc, sort_keys=True) == json.dumps(json.loads(text), sort_keys=True)
    assert (code == 0) == unchanged, json.dumps(doc, sort_keys=True)
