#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures.

The fixtures pin the byte-exact JSON output of the commands whose content is
already verified against the published tables by the test suite.  Run from
the repository root:  python scripts/make_fixtures.py
"""

import pathlib
import sys

from click.testing import CliRunner

from lkbmw.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "lkbmw" / "fixtures"

JOBS = {
    "locus-n3.json": ["locus", "--n", "3"],
    "locus-n4.json": ["locus", "--n", "4"],
    "locus-n5.json": ["locus", "--n", "5"],
    "matrices-n3.json": ["matrices", "--n", "3"],
    "matrices-n4.json": ["matrices", "--n", "4"],
    "sum-matrix-n3.json": ["sum-matrix", "--n", "3"],
    "sum-matrix-n4.json": ["sum-matrix", "--n", "4"],
    "sum-matrix-n5.json": ["sum-matrix", "--n", "5"],
    "kernel-n3-invr3.json": ["kernel", "--n", "3", "--l", "1/r^3"],
    "kernel-n5-negr3.json": ["kernel", "--n", "5", "--l", "-r^3"],
    "kernel-n5-negr3-cyc20.json": ["kernel", "--n", "5", "--l", "-r^3",
                                   "--modulus", "cyclotomic:20"],
    "verify-n3.json": ["verify", "--n", "3"],
    "verify-n5.json": ["verify", "--n", "5"],
    "specht-n7.json": ["specht", "--n", "7", "--gap-check"],
    "specht-n8.json": ["specht", "--n", "8", "--gap-check"],
}


def run():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    runner = CliRunner()
    for name, args in JOBS.items():
        result = runner.invoke(main, args)
        if result.exit_code != 0:
            print("FAILED %s: %s" % (name, result.output))
            return 1
        (FIXTURES / name).write_text(result.output, encoding="utf-8")
        print("wrote", name)
    return 0


if __name__ == "__main__":
    sys.exit(run())
