#!/usr/bin/env python3
"""Print one sha256 per `lk` command of a fixed list, over the command's
arguments, exit code, stdout and stderr.

The list holds:

- every command of the benchmark's four workloads (read from
  perfbench/workloads.py), `kernel` and `det` at l = 1+r^2, 1/(r^2+1),
  (r^2+r+1)/(r-2) and 3/(2*r+5) for n = 4, 5, `verify` and `det` at n = 5
  with l = -r^3 modulo Phi_20, `kernel` at l = -r^3 for n = 3 modulo
  Phi_12 and n = 4 modulo Phi_16, and `kernel` and `det` at n = 5 with the
  high-degree l = (r^64+1)/(r^63-3) modulo Phi_61, and `det` over Q(r)
  at l = r^2 for n = 6, 8, 9, 10 and at l = (r^2+r+1)/(r-2) for n = 6,
  where the determinant's digit width is wider than at n <= 5, at l = r
  for n = 3, where the factor l - r has exponent 0, at the kernel
  workloads' six points for n = 7, at l = (r^24+1)/(r^23-3) for n = 4,
  and at l = 2^64, (2^51)^5 and 2*(r-1)^2/(r+1)^3/r^2 for n = 5, whose
  numerator and denominator carry large integers or the factors r and
  r +- 1 that the closed form of det T(n) counts apart, and `kernel` over
  Q(r) at the kernel workloads' six points (the five roots of the locus
  and l = r^2) for n = 7..12, the sizes beyond the benchmark's;
- `kernel` and `det` modulo Phi_M where two roots of the locus collide:
  where their kernels are glued (n = 6 at l = -1/r^3 modulo Phi_8, n = 7
  at 1/r^11 modulo Phi_3, n = 5 at 1/r^7 modulo Phi_5) and where they are
  not (n = 4 at 1/r^5 modulo Phi_16, n = 8 at -r^3 modulo Phi_32), and at
  n = 9 modulo Phi_61 at the root 1/r^15 and at the high-degree l above,
  which is off the locus there;
- `verify` over Q(l, r) at n = 9..12, at l = (r^2+r+1)/(r-2) for n = 6,
  at the high-degree l above for n = 5 over Q(r) and n = 6 modulo Phi_61,
  and at l = -r^3 for n = 7 modulo Phi_28, the relation checks beyond the
  benchmark's;
- every other command (`matrices`, `sum-matrix`, `locus`, `rank-witness`,
  `specht`, `info`) at small n, and each with `--output text`;
- `check-vectors` for every case at n = 3..8, so every catalogued vector's
  verdict;
- `--golden` against a matching fixture, a different fixture and a missing
  file, named relative to the tree root so that no digest depends on where
  the tree lives;
- every error exit: n out of range, malformed or vanishing l, malformed or
  refused moduli (Phi_1 and Phi_2 force r^2 = 1), an empty modulus with
  a generic and with a specialized l, malformed pools and sizes, missing
  and unknown options;
- the group's `--help` and each command's `--help`;
- `LK_SIZE_GUARD=4` and `LK_SIZE_GUARD=abc`, each set for its own runs
  (every other run has LK_SIZE_GUARD unset).

Each command runs as its own `python -m lkbmw.cli` process, with the tree
root as working directory and COLUMNS=80, on the `src/` of the tree this
script sits in.  Two trees give the same output bytes for every command
exactly when the script prints the same lines in both:

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
from workloads import WORKLOADS, kernel_points  # noqa: E402

EXTRA_POINTS = ["1+r^2", "1/(r^2+1)", "(r^2+r+1)/(r-2)", "3/(2*r+5)"]

CASES = ["one-dim", "n-minus-1+", "n-minus-1-", "l=r", "l=-r3",
         "root-of-unity"]

FIXTURES = "src/lkbmw/fixtures/"

# each command with the arguments of one cheap successful run
SMALL = {
    "matrices": ["--n", "3"],
    "verify": ["--n", "3"],
    "sum-matrix": ["--n", "3"],
    "det": ["--n", "3"],
    "locus": ["--n", "3"],
    "kernel": ["--n", "3", "--l", "1/r^3"],
    "check-vectors": ["--n", "4", "--case", "l=r"],
    "rank-witness": ["--n", "4", "--l", "r", "--size", "2"],
    "specht": ["--n", "5"],
}

# the commands that take --l and --modulus
SPECIALIZED = ["matrices", "verify", "sum-matrix", "det", "kernel",
               "rank-witness"]


def _small(cmd, **change):
    """SMALL[cmd] with the value of each named option replaced."""
    args = list(SMALL[cmd])
    for opt, value in change.items():
        flag = "--" + opt
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    return [cmd] + args


def _workloads():
    ops = [args for name in sorted(WORKLOADS) for args in WORKLOADS[name]]
    for cmd in ("kernel", "det"):
        for n in (4, 5):
            ops += [[cmd, "--n", str(n), "--l", l] for l in EXTRA_POINTS]
    for cmd in ("verify", "det"):
        ops.append([cmd, "--n", "5", "--l", "-r^3",
                    "--modulus", "cyclotomic:20"])
    for n, m in ((3, 12), (4, 16)):
        ops.append(["kernel", "--n", str(n), "--l", "-r^3",
                    "--modulus", "cyclotomic:%d" % m])
    for cmd in ("kernel", "det"):
        ops.append([cmd, "--n", "5", "--l", "(r^64+1)/(r^63-3)",
                    "--modulus", "cyclotomic:61"])
    ops += [["det", "--n", "6", "--l", "r^2"],
            ["det", "--n", "8", "--l", "r^2"],
            ["det", "--n", "6", "--l", "(r^2+r+1)/(r-2)"]]
    ops += [["det", "--n", n, "--l", l] for n, l in (
        ("3", "r"), *(("7", l) for l in kernel_points(7)),
        ("9", "r^2"), ("10", "r^2"), ("4", "(r^24+1)/(r^23-3)"),
        ("5", "2^64"), ("5", "(2^51)^5"), ("5", "2*(r-1)^2/(r+1)^3/r^2"))]
    ops += [["kernel", "--n", str(n), "--l", l]
            for n in range(7, 13) for l in kernel_points(n)]
    ops += [[cmd, "--n", str(n), "--l", l, "--modulus", "cyclotomic:%d" % m]
            for n, l, m in ((6, "-1/r^3", 8), (7, "1/r^11", 3),
                            (5, "1/r^7", 5), (4, "1/r^5", 16),
                            (8, "-r^3", 32), (9, "1/r^15", 61),
                            (9, "(r^64+1)/(r^63-3)", 61))
            for cmd in ("kernel", "det")]
    ops += [["verify", "--n", str(n)] for n in range(9, 13)]
    ops += [["verify", "--n", "6", "--l", "(r^2+r+1)/(r-2)"],
            ["verify", "--n", "5", "--l", "(r^64+1)/(r^63-3)"],
            ["verify", "--n", "6", "--l", "(r^64+1)/(r^63-3)",
             "--modulus", "cyclotomic:61"],
            ["verify", "--n", "7", "--l", "-r^3",
             "--modulus", "cyclotomic:28"]]
    return ops


def _every_command():
    ops = [[cmd] + args for cmd, args in SMALL.items()] + [["info"]]
    ops += [["matrices", "--n", "3", "--l", "r"],
            ["matrices", "--n", "3", "--l", "-r^3",
             "--modulus", "cyclotomic:12"],
            ["sum-matrix", "--n", "4", "--l", "r^2"],
            ["sum-matrix", "--n", "3", "--l", "r",
             "--modulus", "cyclotomic:12"],
            ["verify", "--n", "4", "--l", "1/r^5"],
            ["det", "--n", "4", "--l", "r", "--modulus", "cyclotomic:16"],
            ["locus", "--n", "4"],
            ["specht", "--n", "7", "--gap-check"],
            ["specht", "--n", "8", "--gap-check"],
            # found, none found (T(6) at l = r has rank 6), and pools
            ["rank-witness", "--n", "5", "--l", "r", "--size", "5"],
            ["rank-witness", "--n", "6", "--l", "r", "--size", "7"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "2",
             "--rows", "1,2,3", "--cols", "4,5,6"],
            ["rank-witness", "--n", "4", "--l", "-r^3", "--size", "3",
             "--modulus", "cyclotomic:16", "--rows", "2,4,6"]]
    ops += [["check-vectors", "--n", str(n), "--case", case]
            for n in range(3, 9) for case in CASES]
    ops += [[cmd] + SMALL[cmd] + ["--output", "text"] for cmd in SMALL]
    ops += [["specht", "--n", "8", "--gap-check", "--output", "text"],
            ["rank-witness", "--n", "6", "--l", "r", "--size", "7",
             "--output", "text"],
            ["check-vectors", "--n", "5", "--case", "one-dim",
             "--output", "text"]]
    return ops


def _golden():
    ops = [["locus", "--n", "3", "--golden", FIXTURES + "locus-n3.json"],
           ["matrices", "--n", "3", "--golden",
            FIXTURES + "matrices-n3.json"],
           ["sum-matrix", "--n", "3", "--golden",
            FIXTURES + "sum-matrix-n3.json"],
           ["verify", "--n", "3", "--golden", FIXTURES + "verify-n3.json"],
           ["kernel", "--n", "3", "--l", "1/r^3", "--golden",
            FIXTURES + "kernel-n3-invr3.json"],
           ["specht", "--n", "7", "--gap-check", "--golden",
            FIXTURES + "specht-n7.json"],
           ["locus", "--n", "3", "--output", "text", "--golden",
            FIXTURES + "locus-n3.json"]]
    for cmd in SMALL:
        ops.append([cmd] + SMALL[cmd] + ["--golden",
                                         FIXTURES + "locus-n4.json"])
        ops.append([cmd] + SMALL[cmd] + ["--golden",
                                         FIXTURES + "no-such.json"])
    return ops


def _errors():
    ops = []
    for cmd in SMALL:
        ops += [_small(cmd, n="13"), _small(cmd, n="100"),
                _small(cmd, n="2"), _small(cmd, n="abc"),
                [cmd] + SMALL[cmd] + ["--output", "yaml"]]
    ops += [["specht", "--n", "0"], ["specht", "--n", "-1"],
            ["det", "--n", "7"], ["kernel", "--n", "4"],
            ["rank-witness", "--n", "4"],
            ["rank-witness", "--n", "4", "--l", "r"],
            ["check-vectors", "--n", "4"],
            ["check-vectors", "--n", "4", "--case", "nope"],
            ["check-vectors", "--n", "3", "--case", "l=r"],
            ["locus", "--n", "3", "--l", "r"],
            ["kernel", "--n", "4", "--l", "generic"],
            ["kernel", "--n", "4", "--l", "zz"],
            ["kernel", "--n", "3", "--l", "0^-1"],
            ["det", "--n", "4", "--l", "(2^64)^64"],
            ["kernel", "--n", "4", "--l", "(" * 100 + "r" + ")" * 100],
            ["kernel", "--n", "4", "--l", "1/(r^2+1)",
             "--modulus", "cyclotomic:4"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "0"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "-1"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "1",
             "--rows", "a,b"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "1",
             "--cols", "1,,2"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "1",
             "--rows", "0", "--cols", "0"],
            ["rank-witness", "--n", "4", "--l", "r", "--size", "1",
             "--rows", "99"],
            _small("rank-witness", n="0"), _small("rank-witness", n="1"),
            ["no-such-command"]]
    for cmd in SPECIALIZED:
        ops += [_small(cmd, l="0"),
                _small(cmd, l="r", modulus="foo"),
                _small(cmd, l="generic", modulus="foo"),
                _small(cmd, l="r", modulus="cyclotomic:x"),
                _small(cmd, l="r", modulus="cyclotomic:65"),
                _small(cmd, l="r", modulus="cyclotomic:1"),
                _small(cmd, l="r", modulus="cyclotomic:2"),
                _small(cmd, l="r", modulus="cyclotomic:0"),
                _small(cmd, l="generic", modulus="cyclotomic:8"),
                _small(cmd, l="generic", modulus=""),
                _small(cmd, l="r", modulus=""),
                _small(cmd, l="r^2+1", modulus="cyclotomic:4")]
    return ops


def _help():
    return [["--help"]] + [[cmd, "--help"] for cmd in list(SMALL) + ["info"]]


def _size_guard():
    return [({"LK_SIZE_GUARD": "4"}, args) for args in (
                ["det", "--n", "5"], ["locus", "--n", "5"],
                ["det", "--n", "4", "--l", "r"], ["locus", "--n", "4"])] + [
            ({"LK_SIZE_GUARD": "abc"}, args) for args in (
                ["det", "--n", "4"], ["locus", "--n", "3"],
                ["det", "--n", "13"], ["det", "--n", "3", "--l", "zz"],
                ["kernel", "--n", "3", "--l", "r"])]


def commands():
    """(environment overrides, arguments) for every command of the list."""
    plain = (_workloads() + _every_command() + _golden() + _errors()
             + _help())
    return [({}, args) for args in plain] + _size_guard()


def digest(env_set, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    env.pop("LK_SIZE_GUARD", None)
    env.update(env_set)
    proc = subprocess.run([sys.executable, "-m", "lkbmw.cli", *args],
                          capture_output=True, env=env, cwd=ROOT)
    blob = json.dumps([args, proc.returncode,
                       proc.stdout.decode("utf-8", "backslashreplace"),
                       proc.stderr.decode("utf-8", "backslashreplace")]
                      + ([env_set] if env_set else []))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main():
    for env_set, args in commands():
        label = ["%s=%s" % kv for kv in sorted(env_set.items())] + args
        print(digest(env_set, args), " ".join(label), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
