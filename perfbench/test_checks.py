"""Tests of the benchmark's own checks: each accepts the program's real
output and rejects a corrupted copy of it.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from lkbmw.cli import main  # noqa: E402
from lkbmw.rep import build_matrices  # noqa: E402
from lkbmw.xij import sum_matrix_direct  # noqa: E402
from click.testing import CliRunner  # noqa: E402


def _checker(matrices=build_matrices):
    return checks.Checker(7, sum_matrix_direct, matrices)


def _run(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def _problems(args, payload, checker=None):
    return (checker or _checker()).check(args, json.dumps(payload))


LOCUS = ["locus", "--n", "4"]
KERNEL_QR = ["kernel", "--n", "4", "--l", "r"]
KERNEL_CYC = ["kernel", "--n", "4", "--l", "-r^3",
              "--modulus", "cyclotomic:16"]
VERIFY = ["verify", "--n", "4"]


@pytest.fixture(scope="module")
def outputs():
    return {tuple(a): _run(a) for a in (LOCUS, KERNEL_QR, KERNEL_CYC,
                                        VERIFY)}


@pytest.mark.parametrize("args", [LOCUS, KERNEL_QR, KERNEL_CYC, VERIFY])
def test_real_output_passes(outputs, args):
    assert _problems(args, outputs[tuple(args)]) == []


def test_wrong_multiplicity_is_rejected(outputs):
    bad = copy.deepcopy(outputs[tuple(LOCUS)])
    bad["factors"][0]["multiplicity"] += 1
    assert _problems(LOCUS, bad)


def test_wrong_residual_is_rejected(outputs):
    bad = copy.deepcopy(outputs[tuple(LOCUS)])
    bad["residual"] = "2*(%s)" % bad["residual"]
    assert any("det T(4)" in p for p in _problems(LOCUS, bad))


@pytest.mark.parametrize("args", [KERNEL_QR, KERNEL_CYC])
def test_wrong_dimension_is_rejected(outputs, args):
    bad = copy.deepcopy(outputs[tuple(args)])
    bad["dim"] += 1
    assert _problems(args, bad)
    # a consistent lie: drop a basis vector and lower dim to match
    bad = copy.deepcopy(outputs[tuple(args)])
    bad["basis"].pop()
    bad["dim"] -= 1
    assert any("rank" in p for p in _problems(args, bad))


@pytest.mark.parametrize("args", [KERNEL_QR, KERNEL_CYC])
def test_changed_basis_coordinate_is_rejected(outputs, args):
    payload = outputs[tuple(args)]
    for i, vector in enumerate(payload["basis"]):
        for j in range(len(vector)):
            bad = copy.deepcopy(payload)
            bad["basis"][i][j] = "(%s) + 1" % vector[j]
            assert any("not annihilated" in p
                       for p in _problems(args, bad)), (i, j)


def test_false_catalogue_verdict_is_rejected(outputs):
    payload = outputs[tuple(KERNEL_QR)]
    assert payload["named_verdicts"]
    bad = copy.deepcopy(payload)
    name = sorted(bad["named_verdicts"])[0]
    bad["named_verdicts"][name] = False
    assert _problems(KERNEL_QR, bad)


@pytest.mark.parametrize("index", range(3))
def test_flipped_relation_verdict_is_rejected(outputs, index):
    payload = outputs[tuple(VERIFY)]
    names = [name for name, _ in payload["checks"]]
    # one relation the spot check recomputes, one it does not, the summary
    target = [n for n in names if "braid" in n][0] if index == 0 else (
        [n for n in names if n.startswith("(9)")][0])
    bad = copy.deepcopy(payload)
    if index == 2:
        bad["all_pass"] = False
    else:
        bad["checks"] = [[n, ok if n != target else False]
                         for n, ok in payload["checks"]]
    assert _problems(VERIFY, bad)


def test_spot_check_sees_wrong_matrices(outputs):
    def swapped(n):
        mats = build_matrices(n)
        mats.G[0], mats.G[1] = mats.G[1], mats.G[0]
        return mats
    problems = _problems(VERIFY, outputs[tuple(VERIFY)], _checker(swapped))
    assert any("spot check" in p for p in problems)


def test_evaluate_reads_printed_expressions():
    p = checks.P_GENERIC
    l, r = 5, 7
    got = checks.evaluate("(-3/2*l*r^2 + r)/(r^3) - 1/r^-2", l, r, p)
    want = ((-3 * l * r * r * checks.inv(2, p) + r) * checks.inv(r ** 3, p)
            - r * r) % p
    assert got == want


def test_roots_of_unity_are_primitive():
    import random
    m = 28
    p = checks.prime_one_mod(m)
    z = checks.root_of_unity(m, p, random.Random(1))
    assert pow(z, m, p) == 1
    assert all(pow(z, k, p) != 1 for k in range(1, m))
