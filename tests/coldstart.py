#!/usr/bin/env python3
"""Cold-start probe: wall time and peak RSS of fresh tamerep processes.

    python3 tests/coldstart.py [--repeats 7] [--src DIR ...] [--no-bytecode]

Each case runs --repeats times, each time in a fresh interpreter, and the
probe prints the median wall time and the median of the children's
ru_maxrss, read per child by os.wait4:

- import: python -c "import tamerep"
- pairs: tamerep pairs (n, ell, p_max, t_max) = (8, 3, 60, 20)
- usage_error: tamerep pairs --n 7, which exits 2
- cert: tamerep cert (n, p, t, sign, ell) = (8, 19, 17, +1, 13)
- verify: tamerep verify of that certificate
- selftest: tamerep selftest

The cases run in turn within each repeat, so a slow spell of the machine
spreads over all of them.  --src names the directories that hold the
tamerep packages to compare (default: src/ of this checkout); within each
repeat every case runs on each of them in turn.  With --no-bytecode each
package is copied to a temporary directory and the children run with -B,
so no bytecode of tamerep is on disk in any run; otherwise the probe
reports whether current bytecode of every module is on disk.  Pytest does
not collect this file, since its name does not start with test_.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = [sys.executable, "-m", "tamerep"]
CASES = {
    "import": [sys.executable, "-c", "import tamerep"],
    "pairs": CLI + ["pairs", "--n", "8", "--ell", "3", "--p-max", "60", "--t-max", "20"],
    "usage_error": CLI + ["pairs", "--n", "7", "--ell", "3", "--p-max", "60", "--t-max", "20"],
    "cert": CLI + ["cert", "--n", "8", "--p", "19", "--t", "17", "--sign", "1", "--ell", "13"],
    "verify": CLI + ["verify"],
    "selftest": CLI + ["selftest"],
}
EXIT = {"usage_error": 2}


def run_child(argv: list[str], env: dict, stdout) -> tuple[float, float, int]:
    """(wall seconds, ru_maxrss in MB, exit code) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def bytecode_on_disk(src: Path) -> bool:
    """Whether every module of the package under src has bytecode for this
    interpreter on disk that matches its source: the modification time and
    size in the header of a timestamp-based .pyc."""
    for f in (src / "tamerep").glob("*.py"):
        try:
            head = Path(importlib.util.cache_from_source(str(f))).read_bytes()[8:16]
        except OSError:
            return False
        st = f.stat()
        if head != struct.pack("<II", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF):
            return False
    return True


def probe(srcs: list[Path], repeats: int, flags: list[str], scratch: Path) -> list[dict]:
    """{case: {wall_s, maxrss_mb}} for each package directory in srcs, whose
    runs alternate within each repeat."""
    runs = []
    for i, src in enumerate(srcs):
        env = dict(os.environ, PYTHONPATH=str(src))
        cert = scratch / f"cert{i}.json"
        argvs = {name: argv[:1] + flags + argv[1:] for name, argv in CASES.items()}
        argvs["verify"].append(str(cert))
        with open(cert, "w") as fh:
            if run_child(argvs["cert"], env, fh)[2]:
                raise SystemExit(f"error: tamerep cert failed under {src}")
        runs.append((env, argvs, {name: [] for name in CASES}))
    for _ in range(repeats):
        for env, argvs, samples in runs:
            for name, argv in argvs.items():
                wall, rss, code = run_child(argv, env, subprocess.DEVNULL)
                if code != EXIT.get(name, 0):
                    raise SystemExit(f"error: {name} exited {code}")
                samples[name].append((wall, rss))
    return [
        {
            name: {
                "wall_s": round(statistics.median(w for w, _ in pairs), 4),
                "maxrss_mb": round(statistics.median(r for _, r in pairs), 2),
            }
            for name, pairs in samples.items()
        }
        for _, _, samples in runs
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--src", type=Path, nargs="+", default=[SRC])
    ap.add_argument("--no-bytecode", action="store_true")
    args = ap.parse_args()
    for src in args.src:
        if not (src / "tamerep" / "__init__.py").is_file():
            raise SystemExit(f"error: no tamerep package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        srcs, flags = args.src, []
        if args.no_bytecode:
            srcs = [scratch / f"src{i}" for i in range(len(args.src))]
            for src, copy in zip(args.src, srcs):
                shutil.copytree(src / "tamerep", copy / "tamerep",
                                ignore=shutil.ignore_patterns("__pycache__"))
            flags = ["-B"]
        bytecode = [bytecode_on_disk(src) for src in srcs]
        tables = probe(srcs, args.repeats, flags, scratch)
    print(f"python {sys.version.split()[0]}  repeats {args.repeats}")
    for src, on_disk, table in zip(args.src, bytecode, tables):
        print(f"src {src}  bytecode on disk: {on_disk}")
        for name, row in table.items():
            print(f"  {name:12s} {row['wall_s']:8.3f} s  {row['maxrss_mb']:8.2f} MB")

if __name__ == "__main__":
    main()
