"""Command-line surface: outputs, exit codes, golden comparison."""

import json
import pathlib

import pytest
from click.testing import CliRunner

from lkbmw.cli import main

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
    ["check-vectors", "--n", "2", "--case", "l=r"],
    ["check-vectors", "--n", "3", "--case", "l=r"],
])
def test_exit_code_out_of_range_input(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output


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


def test_exit_code_degenerate_modulus(runner):
    result = runner.invoke(main, ["kernel", "--n", "3", "--l", "-r^3",
                                  "--modulus", "cyclotomic:2"])
    assert result.exit_code == 3
