"""numpy loads with the first extension field, prime-kind product or modulus
search, and not before: pair search, the package import and every argument
check run without it.  Each case runs in a fresh interpreter, since this
suite itself imports numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamerep

SRC = str(Path(tamerep.__file__).resolve().parent.parent)

# runs the CLI as python -m tamerep does, then prints its exit code and
# whether numpy was loaded
_CLI = """
import runpy, sys
sys.argv = ["tamerep", *sys.argv[1:]]
try:
    runpy.run_module("tamerep", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


def _fresh(code: str, *argv: str) -> list[str]:
    """The last line of stdout of code in a fresh interpreter, split."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import tamerep", False),
        ("from tamerep import search_pairs; assert search_pairs(8, 3, 2000, 600)", False),
        ("from tamerep import make_field; f = make_field(7, 1); assert f.element(3) * 5 == 1",
         False),
        ("from tamerep import make_field; make_field(3, 4)", True),
    ],
    ids=["import", "search_pairs", "prime_field", "extension_field"],
)
def test_numpy_loaded_only_by_fields(code, loaded):
    assert _fresh(code + "\nimport sys; print('numpy' in sys.modules)") == [str(loaded)]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20"], 0),
        (["pairs", "--n", "7", "--ell", "3", "--p-max", "60", "--t-max", "20"], 2),
        (["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "1", "--ell", "4"], 3),
        (["classify", "gens.json", "gram.json", "--p", "4"], 2),
        (["verify", "missing.json"], 2),
    ],
    ids=["pairs", "pairs_odd_n", "cert_even_ell", "classify_composite_p", "verify_missing"],
)
def test_cli_paths_without_fields_skip_numpy(tmp_path, argv, exit_code):
    out = tmp_path / "out.json"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert _fresh(_CLI, *argv, "--output", str(out)) == [str(exit_code), "False"]
    assert out.exists() == (exit_code == 0)
