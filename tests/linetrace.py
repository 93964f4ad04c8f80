#!/usr/bin/env python3
"""Traffic probe: which functions of src/tamerep the callers of record run.

    python3 tests/linetrace.py [--passes 3] [--seed 7]

Under sys.settrace the probe runs --passes passes of each benchmark
workload of benchmarks/workloads.py (sweep, cert, ortho and pairs), each
item followed by its own check, and then, in this process, the CLI
commands cert (8,19,17,+1,13), verify of that certificate, selftest,
pairs (8,3,60,20) and a classify of a two-generator group over F_9.  A
function counts as run once a frame of its code starts, which is once it
executes a line.  The probe then prints every function and method defined
in src/tamerep whose code never ran, with its size in lines (decorators
included) and the total; a function nested in one that never ran is
counted with it, not listed apart.  It reads benchmarks/ and changes
nothing there.  A workload problem or an unexpected exit code is printed
and makes the probe exit 1, since a failed run reaches less code.  Pytest
does not collect this file, since its name does not start with test_.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tamerep"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]


def defined_functions() -> dict[tuple[str, int], tuple[str, int, int]]:
    """(file, first line of the code object) -> (qualified name, size in
    lines, first line of the enclosing function or 0) for every function
    of the package; a decorated function's code starts at its first
    decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix: str, outer: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    out[(str(path), first)] = (name, child.end_lineno - first + 1, outer)
                    walk(child, name + ".", first)
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", outer)
                else:
                    walk(child, prefix, outer)

        walk(tree, "", 0)
    return out


class Tracer:
    """Records the code of every frame started in the package."""

    def __init__(self):
        self.started: set[tuple[str, int]] = set()
        self._files: dict[str, str | None] = {}

    def _package_file(self, name: str) -> str | None:
        if name not in self._files:
            path = Path(name).resolve()
            self._files[name] = str(path) if path.parent == PACKAGE else None
        return self._files[name]

    def __call__(self, frame, event, arg):
        path = self._package_file(frame.f_code.co_filename)
        if path is not None:
            self.started.add((path, frame.f_code.co_firstlineno))

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_workloads(passes: int, seed: int) -> list[str]:
    import workloads

    problems = []
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(seed)
        for index in range(passes):
            for item in wl.plan(index):
                problems += [f"{name} {item.label}: {p}" for p in item.check(item.run())]
    return problems


# a 2-generator subgroup of O+(2, 9): the swap and diag(x, -x) with x^2 = -1,
# over F_9 = F_3[x]/(x^2 + 1), on the hyperbolic plane
CLASSIFY_GENS = [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[0, 1], [0, 0]], [[0, 0], [0, 2]]]]
CLASSIFY_GRAM = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


def run_cli(tmp: Path) -> list[str]:
    from tamerep import cli

    cert = tmp / "cert.json"
    (tmp / "gens.json").write_text(json.dumps(CLASSIFY_GENS))
    (tmp / "gram.json").write_text(json.dumps(CLASSIFY_GRAM))
    commands = [
        ["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "1", "--ell", "13",
         "--output", str(cert)],
        ["verify", str(cert)],
        ["selftest"],
        ["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20"],
        ["classify", str(tmp / "gens.json"), str(tmp / "gram.json"), "--p", "3", "--k", "2"],
    ]
    problems = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            problems.append(f"tamerep {argv[0]} exited {code}: {out.getvalue().strip()}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=3, help="passes of each workload")
    ap.add_argument("--seed", type=int, default=7, help="workload seed")
    args = ap.parse_args(argv)
    defined = defined_functions()
    with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer:
        problems = run_workloads(args.passes, args.seed) + run_cli(Path(tmp))
    unrun = {key for key in defined if key not in tracer.started}
    listed = [(key, defined[key]) for key in sorted(unrun)
              if (key[0], defined[key][2]) not in unrun]
    for (path, line), (name, size, _) in listed:
        print(f"{size:5d}  {os.path.basename(path)}:{line}  {name}")
    total = sum(size for _, (_, size, _) in listed)
    print(f"{len(listed)} functions never ran, {total} lines "
          f"({len(defined)} functions defined)")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
