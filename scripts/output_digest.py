#!/usr/bin/env python3
"""Print one sha256 per `lk` command of a fixed list, over the command's
arguments, exit code, stdout and stderr.

The list is every command of the benchmark's four workloads (read from
perfbench/workloads.py), `kernel` and `det` at l = 1+r^2, 1/(r^2+1),
(r^2+r+1)/(r-2) and 3/(2*r+5) for n = 4, 5, `verify` and `det` at n = 5
with l = -r^3 modulo Phi_20, and `kernel` and `det` at n = 5 with the
high-degree l = (r^64+1)/(r^63-3) modulo Phi_61.  Each command runs as its
own `python -m lkbmw.cli` process on the `src/` of the tree this script sits
in.  Two trees give the same output bytes for every command exactly when the
script prints the same lines in both:

    python3 scripts/output_digest.py > after.txt   # in each tree
    diff before.txt after.txt
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

EXTRA_POINTS = ["1+r^2", "1/(r^2+1)", "(r^2+r+1)/(r-2)", "3/(2*r+5)"]


def commands():
    ops = [args for name in sorted(WORKLOADS) for args in WORKLOADS[name]]
    for cmd in ("kernel", "det"):
        for n in (4, 5):
            ops += [[cmd, "--n", str(n), "--l", l] for l in EXTRA_POINTS]
    for cmd in ("verify", "det"):
        ops.append([cmd, "--n", "5", "--l", "-r^3",
                    "--modulus", "cyclotomic:20"])
    for cmd in ("kernel", "det"):
        ops.append([cmd, "--n", "5", "--l", "(r^64+1)/(r^63-3)",
                    "--modulus", "cyclotomic:61"])
    return ops


def digest(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "lkbmw.cli", *args],
                          capture_output=True, env=env, cwd=ROOT)
    blob = json.dumps([args, proc.returncode,
                       proc.stdout.decode("utf-8", "backslashreplace"),
                       proc.stderr.decode("utf-8", "backslashreplace")])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main():
    for args in commands():
        print(digest(args), " ".join(args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
