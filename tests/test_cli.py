"""Command-line surface: outputs, exit codes, golden comparison."""

import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from lkbmw import rings
from lkbmw.cli import main
from lkbmw.rep import build_matrices, verify_relations
from lkbmw.spectral import SizeGuardError

FIXTURES = (pathlib.Path(__file__).resolve().parent.parent
            / "src" / "lkbmw" / "fixtures")


@pytest.fixture
def runner():
    return CliRunner()


def test_locus_four_strands(runner):
    result = runner.invoke(main, ["locus", "--n", "4"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    mults = {f["label"]: f["multiplicity"] for f in payload["factors"]}
    assert mults == {"l - r": 2, "l + r^3": 3, "l - 1/r": 3,
                     "l + 1/r": 3, "l - 1/r^5": 1}
    assert payload["residual_l_degree"] == 0


def test_kernel_one_dimensional_line(runner):
    result = runner.invoke(main, ["kernel", "--n", "3", "--l", "1/r^3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dim"] == 1
    assert payload["basis"] == [["1", "r^2", "r"]]


def test_verify_reports_all_pass(runner):
    result = runner.invoke(main, ["verify", "--n", "4"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_pass"] is True


def test_kernel_in_quotient_field(runner):
    result = runner.invoke(main, [
        "kernel", "--n", "4", "--l", "-r^3", "--modulus", "cyclotomic:16"])
    assert result.exit_code == 0
    assert json.loads(result.output)["dim"] == 4


def test_check_vectors(runner):
    result = runner.invoke(main, ["check-vectors", "--n", "5",
                                  "--case", "l=r"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_pass"] is True
    assert any(name.startswith("hk5") for name in payload["verdicts"])


def test_rank_witness(runner):
    result = runner.invoke(main, ["rank-witness", "--n", "5", "--l", "r",
                                  "--size", "5"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"] == [1, 2, 3, 4, 7]
    assert payload["cols"] == [1, 2, 3, 4, 7]


def test_specht_gap(runner):
    result = runner.invoke(main, ["specht", "--n", "8", "--gap-check"])
    payload = json.loads(result.output)
    assert payload["gap_check"] is False
    assert [[4, 4], 14] in payload["violations"]


def test_exit_code_parse_error(runner):
    result = runner.invoke(main, ["kernel", "--n", "4", "--l", "zz"])
    assert result.exit_code == 3


@pytest.mark.parametrize("args", [
    ["kernel", "--n", "4", "--l", "r^999999"],
    ["kernel", "--n", "2", "--l", "r"],
    ["kernel", "--n", "1", "--l", "r"],
    ["rank-witness", "--n", "4", "--l", "r", "--size", "1",
     "--rows", "0", "--cols", "0"],
    ["rank-witness", "--n", "4", "--l", "r", "--size", "1", "--rows", "99"],
    ["rank-witness", "--n", "4", "--l", "r", "--size", "1", "--cols", "7"],
    ["rank-witness", "--n", "4", "--l", "r", "--size", "0"],
    ["sum-matrix", "--n", "-3"],
    ["sum-matrix", "--n", "0"],
    ["sum-matrix", "--n", "2"],
    ["specht", "--n", "0"],
    ["check-vectors", "--n", "2", "--case", "l=r"],
    ["check-vectors", "--n", "3", "--case", "l=r"],
    # a negative power of zero is a division by zero
    ["kernel", "--n", "3", "--l", "0^-1"],
    ["kernel", "--n", "3", "--l", "(1-1)^-2"],
    ["det", "--n", "3", "--l", "0^-1"],
    ["det", "--n", "3", "--l", "(1-1)^-2"],
    # coefficients above MAX_COEFF_BITS: accepted, these ran 41 s to over
    # 5 minutes and then failed on Python's int-to-str limit
    ["kernel", "--n", "3", "--l", "(((2^64)^64)^64)"],
    ["kernel", "--n", "3", "--l", "((((2^64)^64)^64)^64)"],
    ["det", "--n", "4", "--l", "(2^64)^64"],
    # n is checked before the index pools
    ["rank-witness", "--n", "0", "--l", "r", "--size", "1"],
    ["rank-witness", "--n", "1", "--l", "r", "--size", "1"],
    ["rank-witness", "--n", "2", "--l", "r", "--size", "2"],
])
def test_exit_code_out_of_range_input(runner, args):
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 3, result.output


@pytest.mark.parametrize("n,size", [("0", "1"), ("1", "1"), ("2", "2")])
def test_rank_witness_checks_n_before_the_pools(runner, n, size):
    result = runner.invoke(main, ["rank-witness", "--n", n, "--l", "r",
                                  "--size", size])
    assert result.exit_code == 3
    assert result.output == "error: input: n must be at least 3\n"


def test_exit_code_pole(runner):
    # l = r annihilates nothing here, but a generic kernel is refused
    result = runner.invoke(main, ["kernel", "--n", "4", "--l", "generic"])
    assert result.exit_code == 3


@pytest.mark.parametrize("l_expr,modulus", [("1/(r^2+1)", "cyclotomic:4"),
                                             ("1/(r-1)", "cyclotomic:1")])
def test_exit_code_pole_in_quotient(runner, l_expr, modulus):
    result = runner.invoke(main, ["kernel", "--n", "4", "--l", l_expr,
                                  "--modulus", modulus])
    assert result.exit_code == 3, result.output
    assert "vanishes modulo" in result.output


@pytest.mark.parametrize("l_expr,message", [
    ("generic", "a modulus requires a specialized l"),
    ("r", "modulus must look like cyclotomic:M")])
def test_exit_code_empty_modulus(runner, l_expr, message):
    # an empty --modulus is a modulus, never the absence of one
    result = runner.invoke(main, ["det", "--n", "3", "--l", l_expr,
                                  "--modulus", ""])
    assert result.exit_code == 3
    assert result.output == "error: parse: %s\n" % message


@pytest.mark.parametrize("l_expr,modulus", [("0", None),
                                             ("0", "cyclotomic:8"),
                                             ("r^2+1", "cyclotomic:4")])
def test_exit_code_l_vanishes_in_the_target_field(runner, l_expr, modulus):
    args = ["kernel", "--n", "4", "--l", l_expr]
    if modulus:
        args += ["--modulus", modulus]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert ("error: parse: l must specialize to a nonzero value"
            in result.output)


@pytest.mark.parametrize("args", [
    ["kernel", "--n", "4", "--l", "r", "--modulus", "cyclotomic:1000000"],
    ["kernel", "--n", "6", "--l", "r", "--modulus", "cyclotomic:30030"],
    ["kernel", "--n", "8", "--l", "r^2", "--modulus", "cyclotomic:997"],
    ["kernel", "--n", "12", "--l", "r^2", "--modulus", "cyclotomic:97"],
])
def test_exit_code_cyclotomic_index_cap(runner, args):
    # each of these runs for 15 s to minutes when accepted; Phi_M is
    # refused before it is built
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "error: parse: cyclotomic index above %d" % (
        rings.MAX_CYCLOTOMIC_INDEX) in result.output
    assert int(args[-1].split(":")[1]) not in rings._CYCLO_CACHE


def test_rank_witness_above_the_rank_answers_at_once(runner):
    # T(6) at l = r has rank 6, so no 7 x 7 minor is invertible; trying
    # each of the C(15, 7)^2 minors would take minutes
    start = time.perf_counter()
    result = runner.invoke(main, ["rank-witness", "--n", "6", "--l", "r",
                                  "--size", "7"])
    assert time.perf_counter() - start < 10
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["found"] is False


@pytest.mark.parametrize("cmd", ["kernel", "det"])
def test_high_degree_l_modulo_phi_61_answers_at_once(runner, cmd):
    # embedded modulo Phi_61 this l has 60 coefficients of up to 95 bits;
    # inverting such entries over Q[r] took 27 s (kernel) and 33 s (det)
    start = time.perf_counter()
    result = runner.invoke(main, [cmd, "--n", "5", "--l", "(r^64+1)/(r^63-3)",
                                  "--modulus", "cyclotomic:61"])
    assert time.perf_counter() - start < 10
    assert result.exit_code == 0, result.output
    if cmd == "kernel":
        assert json.loads(result.output)["dim"] == 0


def _lk_process(*args):
    """(process, seconds) for one `python -m lkbmw.cli` run on this tree's
    src/."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "lkbmw.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    return proc, time.perf_counter() - start


def test_high_degree_l_modulo_phi_61_answers_at_once_at_n_12():
    # l is off the locus in that field, so the kernel is 0 with no T(n),
    # and det T(n) is the closed form there; eliminating T(12) took 42.7 s
    # (kernel) and 54 s (det) per process (2 cores, Python 3.11)
    for cmd in ("kernel", "det"):
        proc, seconds = _lk_process(cmd, "--n", "12", "--l",
                                    "(r^64+1)/(r^63-3)",
                                    "--modulus", "cyclotomic:61")
        assert seconds < 10
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        if cmd == "kernel":
            assert (payload["dim"], payload["named_verdicts"]) == (0, {})
        else:
            assert payload["det"] not in ("", "0")


@pytest.mark.parametrize("args,zero", [
    (["--n", "4", "--l", "(r^64+1)/(r^63-3)"], False),
    (["--n", "12", "--l", "r^2"], False),
    (["--n", "5", "--l", "(2^51)^5"], False),
    (["--n", "12", "--l=-r^3"], True)])
def test_det_over_qr_answers_at_once(args, zero):
    # det T(n) over Q(r) is the closed form; eliminating T(n) took 97.8 s
    # at n = 4 with the high-degree l, 17.3 s at n = 10 with r^2 and over
    # 120 s at n = 12, and about 19 s at n = 5 with the 255-bit l (2 cores,
    # Python 3.11)
    proc, seconds = _lk_process("det", *args)
    assert seconds < 10
    assert proc.returncode == 0, proc.stderr
    det = json.loads(proc.stdout)["det"]
    assert det == "0" if zero else det not in ("", "0")


@pytest.mark.parametrize("n", ["5", "6", "7", "12"])
def test_high_degree_l_over_qr_answers_at_once(runner, n):
    # l is off the locus, so for every n <= 12 the kernel is 0 with no
    # T(n); eliminating T(n) took 16 s at n = 5, over 150 s at n = 6 and
    # over 60 s at n = 7
    start = time.perf_counter()
    result = runner.invoke(main, ["kernel", "--n", n, "--l",
                                  "(r^64+1)/(r^63-3)"])
    assert time.perf_counter() - start < 10
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert (payload["dim"], payload["basis"], payload["named_verdicts"]) == (
        0, [], {})


@pytest.mark.parametrize("l_expr", ["(" * 1200 + "r" + ")" * 1200,
                                    "-" * 1200 + "r"])
def test_exit_code_deep_nesting(runner, l_expr):
    result = runner.invoke(main, ["kernel", "--n", "4", "--l", l_expr])
    assert result.exit_code == 3, result.output
    assert "nested deeper" in result.output


def test_exit_code_size_guard(runner, monkeypatch):
    monkeypatch.delenv("LK_SIZE_GUARD", raising=False)
    result = runner.invoke(main, ["det", "--n", "7"])
    assert result.exit_code == 4
    monkeypatch.setenv("LK_SIZE_GUARD", "4")
    result = runner.invoke(main, ["det", "--n", "5"])
    assert result.exit_code == 4


# every command that computes at some n, with its other arguments
CAPPED = [
    ["kernel", "--l", "r"], ["matrices"], ["sum-matrix"], ["verify"],
    ["check-vectors", "--case", "l=r"],
    ["rank-witness", "--l", "r", "--size", "1"],
    ["det", "--l", "r^2"], ["locus"], ["specht"],
]


@pytest.mark.parametrize("n", ["13", "100"])
@pytest.mark.parametrize("args", CAPPED)
def test_exit_code_size_cap(runner, monkeypatch, args, n):
    # a new command cannot skip the cap unnoticed
    assert ({a[0] for a in CAPPED}
            == set(main.commands) - {"info"})

    def refuse(*args):
        raise AssertionError("a matrix was built")

    for module in ("lkbmw.cli", "lkbmw.spectral"):
        monkeypatch.setattr(module + ".sum_matrix_direct", refuse)
    monkeypatch.setattr("lkbmw.cli.build_matrices", refuse)
    monkeypatch.setenv("LK_SIZE_GUARD", "200")
    result = runner.invoke(main, args[:1] + ["--n", n] + args[1:])
    assert result.exit_code == 4, result.output
    assert "error: size-guard:" in result.output


# each computing command at a small n, and the function it computes with
COMPUTED_BY = [
    (["matrices", "--n", "3"], "lkbmw.cli.build_matrices"),
    (["verify", "--n", "3"], "lkbmw.cli.verify_relations"),
    (["sum-matrix", "--n", "3"], "lkbmw.cli.sum_matrix_direct"),
    (["det", "--n", "3"], "lkbmw.spectral.det_T"),
    (["locus", "--n", "3"], "lkbmw.spectral.reducibility_locus"),
    (["kernel", "--n", "3", "--l", "r"], "lkbmw.spectral.kernel"),
    (["check-vectors", "--n", "4", "--case", "l=r"],
     "lkbmw.spectral.check_named"),
    (["rank-witness", "--n", "4", "--l", "r", "--size", "1"],
     "lkbmw.spectral.rank_witness"),
    (["specht", "--n", "3"], "lkbmw.specht.sym_dims"),
]


@pytest.mark.parametrize("error,code,kind", [
    (ValueError, 3, "input"), (rings.PoleError, 3, "input"),
    (rings.NonInvertibleError, 3, "input"), (ZeroDivisionError, 3, "input"),
    (SizeGuardError, 4, "size-guard"),
])
@pytest.mark.parametrize("args,target", COMPUTED_BY)
def test_every_command_maps_every_error(runner, monkeypatch, args, target,
                                        error, code, kind):
    assert ({a[0] for a, _ in COMPUTED_BY}
            == set(main.commands) - {"info"})

    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(target, fail)
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert "error: %s: boom" % kind in result.output


def test_malformed_size_guard_is_an_input_error(runner, monkeypatch):
    monkeypatch.setenv("LK_SIZE_GUARD", "abc")
    for args in (["det", "--n", "4"], ["locus", "--n", "3"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert "error: input: LK_SIZE_GUARD" in result.output


def test_info_names_the_backend(runner):
    assert rings._Q is Fraction
    result = runner.invoke(main, ["info"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "command": "info", "backend": "Fraction",
        "python": platform.python_version()}


def test_output_is_deterministic(runner):
    a = runner.invoke(main, ["sum-matrix", "--n", "4"]).output
    b = runner.invoke(main, ["sum-matrix", "--n", "4"]).output
    assert a == b


GOLDEN_JOBS = [
    ("locus-n3.json", ["locus", "--n", "3"]),
    ("locus-n4.json", ["locus", "--n", "4"]),
    ("locus-n5.json", ["locus", "--n", "5"]),
    ("matrices-n3.json", ["matrices", "--n", "3"]),
    ("matrices-n4.json", ["matrices", "--n", "4"]),
    ("sum-matrix-n3.json", ["sum-matrix", "--n", "3"]),
    ("sum-matrix-n4.json", ["sum-matrix", "--n", "4"]),
    ("sum-matrix-n5.json", ["sum-matrix", "--n", "5"]),
    ("kernel-n3-invr3.json", ["kernel", "--n", "3", "--l", "1/r^3"]),
    ("verify-n3.json", ["verify", "--n", "3"]),
    ("specht-n7.json", ["specht", "--n", "7", "--gap-check"]),
    ("specht-n8.json", ["specht", "--n", "8", "--gap-check"]),
    ("kernel-n5-negr3.json", ["kernel", "--n", "5", "--l", "-r^3"]),
    ("kernel-n5-negr3-cyc20.json", ["kernel", "--n", "5", "--l", "-r^3",
                                    "--modulus", "cyclotomic:20"]),
    ("verify-n5.json", ["verify", "--n", "5"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_JOBS)
def test_golden_fixtures_match(runner, name, args):
    path = FIXTURES / name
    result = runner.invoke(main, args + ["--golden", str(path)])
    assert result.exit_code == 0, result.output


def test_golden_mismatch_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}\n", encoding="utf-8")
    result = runner.invoke(main, ["locus", "--n", "3",
                                  "--golden", str(bad)])
    assert result.exit_code == 2


def test_golden_missing_file_is_an_input_error(runner, tmp_path):
    missing = tmp_path / "missing.json"
    result = runner.invoke(main, ["locus", "--n", "3",
                                  "--golden", str(missing)])
    assert result.exit_code == 3
    assert "error: golden: " in result.output


def test_verify_text_names_the_failing_relations(runner, monkeypatch):
    def one_failure(mats):
        report = verify_relations(mats)
        report.checks[1] = (report.checks[1][0], False)
        return report

    monkeypatch.setattr("lkbmw.cli.verify_relations", one_failure)
    result = runner.invoke(main, ["verify", "--n", "3", "--output", "text"])
    assert result.exit_code == 0
    name = verify_relations(build_matrices(3)).checks[1][0]
    assert result.output == "verify n=3 spec=generic: FAIL %s\n" % name


def test_exit_code_degenerate_modulus(runner):
    # r^2 = 1 makes m = 1/r - r vanish; the spec is refused as it is parsed
    for modulus in ("cyclotomic:1", "cyclotomic:2"):
        for args in (["matrices", "--n", "3"], ["verify", "--n", "3"],
                     ["sum-matrix", "--n", "3"], ["det", "--n", "3"],
                     ["kernel", "--n", "3"],
                     ["rank-witness", "--n", "4", "--size", "2"]):
            result = runner.invoke(main, args + ["--l", "-r^3",
                                                 "--modulus", modulus])
            assert result.exit_code == 3, args
            assert result.output == (
                "error: parse: the specialization forces r^2 = 1, which "
                "annihilates m\n"), args
