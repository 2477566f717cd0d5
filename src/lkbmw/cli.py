"""Command-line interface: machine-readable access to every computation,
with byte-stable JSON output and golden-file comparison."""

from __future__ import annotations

import json
import os
import platform
import sys

import click

from . import rings, spectral, specht as specht_mod
from .rep import build_matrices, verify_relations
from .rings import (ExpressionError, NonInvertibleError, PoleError,
                    Specialization, cyclotomic, parse_r_expression)
from .xij import sum_matrix_direct

EXIT_OK = 0
EXIT_GOLDEN_MISMATCH = 2
EXIT_INPUT_ERROR = 3
EXIT_SIZE_GUARD = 4

# the largest n any command accepts: T(n) has n(n-1)/2 rows, so far larger n
# would run for hours or exhaust memory
MAX_N = 12


def _fail(code, kind, message):
    click.echo("error: %s: %s" % (kind, message), err=True)
    sys.exit(code)


def _parse_spec(l_expr, modulus):
    if l_expr is None or l_expr.strip() == "generic":
        if modulus:
            _fail(EXIT_INPUT_ERROR, "parse",
                  "a modulus requires a specialized l")
        return Specialization.generic()
    try:
        value = parse_r_expression(l_expr)
    except ExpressionError as exc:
        _fail(EXIT_INPUT_ERROR, "parse", str(exc))
    if modulus is None:
        try:
            return Specialization.l_to(value)
        except ValueError as exc:
            _fail(EXIT_INPUT_ERROR, "parse", str(exc))
    if not modulus.startswith("cyclotomic:"):
        _fail(EXIT_INPUT_ERROR, "parse",
              "modulus must look like cyclotomic:M")
    try:
        m = int(modulus.split(":", 1)[1])
        return Specialization.l_to_mod(value, cyclotomic(m))
    except (ValueError, NonInvertibleError, PoleError) as exc:
        _fail(EXIT_INPUT_ERROR, "parse", str(exc))


def _guard():
    value = os.environ.get("LK_SIZE_GUARD", "6")
    try:
        return int(value)
    except ValueError:
        _fail(EXIT_INPUT_ERROR, "input",
              "LK_SIZE_GUARD must be an integer, not %r" % value)


def _cap(n):
    """Refuse n above MAX_N before any matrix is built."""
    if n > MAX_N:
        _fail(EXIT_SIZE_GUARD, "size-guard",
              "n=%d exceeds the largest supported size %d" % (n, MAX_N))


def _matrix_strings(M):
    return [[str(e) for e in row] for row in M]


def _emit(payload, output, golden, text_lines=None):
    rendered = json.dumps(payload, indent=1, sort_keys=True)
    if output == "text" and text_lines is not None:
        body = "\n".join(text_lines)
    else:
        body = rendered
    click.echo(body)
    if golden:
        try:
            with open(golden, "r", encoding="utf-8") as fh:
                want = fh.read().rstrip("\n")
        except OSError as exc:
            _fail(EXIT_INPUT_ERROR, "golden", str(exc))
        if want != rendered:
            _fail(EXIT_GOLDEN_MISMATCH, "golden",
                  "output differs from %s" % golden)
    sys.exit(EXIT_OK)


def _common(fn):
    fn = click.option("--output", type=click.Choice(["json", "text"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--golden", type=click.Path(), default=None,
                      help="compare the JSON output against this fixture")(fn)
    return fn


@click.group()
def main():
    """Exact computations for the Lawrence-Krammer representation of the
    BMW algebra of type A."""


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--l", "l_expr", default="generic", show_default=True)
@click.option("--modulus", default=None)
@_common
def matrices(n, l_expr, modulus, output, golden):
    """The generator matrices G_i, E_i, G_i^{-1}."""
    _cap(n)
    spec = _parse_spec(l_expr, modulus)
    try:
        mats = build_matrices(n, spec)
    except (ValueError, PoleError, ZeroDivisionError) as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {
        "command": "matrices", "n": n, "spec": str(spec),
        "G": [_matrix_strings(g) for g in mats.G],
        "E": [_matrix_strings(e) for e in mats.E],
        "Ginv": [_matrix_strings(g) for g in mats.Ginv],
    }
    _emit(payload, output, golden,
          ["matrices n=%d spec=%s size=%d" % (n, spec, mats.size)])


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--l", "l_expr", default="generic", show_default=True)
@click.option("--modulus", default=None)
@_common
def verify(n, l_expr, modulus, output, golden):
    """Check every defining relation on the matrices."""
    _cap(n)
    spec = _parse_spec(l_expr, modulus)
    try:
        report = verify_relations(build_matrices(n, spec))
    except (ValueError, PoleError, ZeroDivisionError) as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {
        "command": "verify", "n": n, "spec": str(spec),
        "all_pass": report.all_pass,
        "checks": [[name, ok] for name, ok in report.checks],
    }
    lines = ["verify n=%d spec=%s: %s" % (
        n, spec, "all pass" if report.all_pass else
        "FAIL " + ", ".join(report.failures))]
    _emit(payload, output, golden, lines)


@main.command(name="sum-matrix")
@click.option("--n", type=int, required=True)
@click.option("--l", "l_expr", default="generic", show_default=True)
@click.option("--modulus", default=None)
@_common
def sum_matrix_cmd(n, l_expr, modulus, output, golden):
    """The dense matrix T(n) of the summed conjugate operators."""
    _cap(n)
    spec = _parse_spec(l_expr, modulus)
    try:
        T = sum_matrix_direct(n, spec)
    except (ValueError, PoleError, ZeroDivisionError) as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {"command": "sum-matrix", "n": n, "spec": str(spec),
               "entries": _matrix_strings(T.entries)}
    _emit(payload, output, golden,
          ["sum-matrix n=%d spec=%s size=%d" % (n, spec, T.size)])


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--l", "l_expr", default="generic", show_default=True)
@click.option("--modulus", default=None)
@_common
def det(n, l_expr, modulus, output, golden):
    """det T(n) over the chosen field."""
    _cap(n)
    spec = _parse_spec(l_expr, modulus)
    try:
        value = spectral.det_T(n, spec, guard=_guard())
    except spectral.SizeGuardError as exc:
        _fail(EXIT_SIZE_GUARD, "size-guard", str(exc))
    except (ValueError, PoleError, ZeroDivisionError) as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {"command": "det", "n": n, "spec": str(spec),
               "det": str(value)}
    _emit(payload, output, golden, ["det T(%d) = %s" % (n, value)])


@main.command()
@click.option("--n", type=int, required=True)
@_common
def locus(n, output, golden):
    """Reducibility locus of det T(n) in the parameter l."""
    _cap(n)
    try:
        rep = spectral.reducibility_locus(n, guard=_guard())
    except spectral.SizeGuardError as exc:
        _fail(EXIT_SIZE_GUARD, "size-guard", str(exc))
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {
        "command": "locus", "n": n,
        "factors": [{"eps": f.eps, "k": f.k, "label": f.label(),
                     "multiplicity": f.multiplicity,
                     "factor": str(f.factor)} for f in rep.factors],
        "residual": str(rep.residual),
        "residual_l_degree": rep.residual.num.degree_l(),
        "l_denominator_power": rep.l_denominator_power,
        "scalar": str(rep.scalar),
    }
    lines = ["locus n=%d:" % n] + [
        "  (%s)^%d" % (f.label(), f.multiplicity) for f in rep.factors]
    _emit(payload, output, golden, lines)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--l", "l_expr", required=True)
@click.option("--modulus", default=None)
@_common
def kernel(n, l_expr, modulus, output, golden):
    """Basis and dimension of K(n) = Ker T(n) at a specialized l."""
    _cap(n)
    spec = _parse_spec(l_expr, modulus)
    try:
        rep = spectral.kernel(n, spec)
    except (ValueError, PoleError, NonInvertibleError,
            ZeroDivisionError) as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {"command": "kernel", "n": n, "spec": str(spec),
               "dim": rep.dim,
               "basis": [[str(e) for e in v] for v in rep.basis],
               "named_verdicts": rep.named_verdicts()}
    _emit(payload, output, golden,
          ["kernel n=%d spec=%s dim=%d" % (n, spec, rep.dim)])


@main.command(name="check-vectors")
@click.option("--n", type=int, required=True)
@click.option("--case", "case", required=True,
              type=click.Choice(list(spectral.ALL_CASES)))
@_common
def check_vectors(n, case, output, golden):
    """Membership verdicts for the catalogued spanning vectors."""
    _cap(n)
    try:
        verdicts = spectral.check_named(n, case)
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    payload = {"command": "check-vectors", "n": n, "case": case,
               "verdicts": verdicts,
               "all_pass": all(verdicts.values())}
    lines = ["check-vectors n=%d case=%s: %s" % (
        n, case, "all pass" if all(verdicts.values()) else "FAIL")]
    _emit(payload, output, golden, lines)


@main.command(name="rank-witness")
@click.option("--n", type=int, required=True)
@click.option("--l", "l_expr", required=True)
@click.option("--modulus", default=None)
@click.option("--size", type=int, required=True)
@click.option("--rows", default=None, help="comma-separated 1-based pool")
@click.option("--cols", default=None, help="comma-separated 1-based pool")
@_common
def rank_witness(n, l_expr, modulus, size, rows, cols, output, golden):
    """First invertible size x size submatrix of T(n), in lexicographic
    order with the columns outermost."""
    _cap(n)
    spec = _parse_spec(l_expr, modulus)
    try:
        row_pool = [int(t) for t in rows.split(",")] if rows else None
        col_pool = [int(t) for t in cols.split(",")] if cols else None
        hit = spectral.rank_witness(n, spec, size, row_pool, col_pool)
    except (ValueError, PoleError, ZeroDivisionError) as exc:
        _fail(EXIT_INPUT_ERROR, "input", str(exc))
    if hit is None:
        payload = {"command": "rank-witness", "n": n, "spec": str(spec),
                   "size": size, "found": False}
        _emit(payload, output, golden, ["rank-witness: none found"])
    wrows, wcols = hit
    d = spectral.submatrix_det(n, spec, wrows, wcols)
    payload = {"command": "rank-witness", "n": n, "spec": str(spec),
               "size": size, "found": True, "rows": wrows, "cols": wcols,
               "det": str(d)}
    _emit(payload, output, golden,
          ["rank-witness n=%d size=%d rows=%s cols=%s det=%s"
           % (n, size, wrows, wcols, d)])


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--gap-check", is_flag=True, default=False)
@_common
def specht(n, gap_check, output, golden):
    """Hook-length dimensions of the irreducibles of Sym(n)."""
    if n < 1 or n > MAX_N:
        _fail(EXIT_INPUT_ERROR, "input", "n must be between 1 and %d" % MAX_N)
    dims = specht_mod.sym_dims(n)
    payload = {"command": "specht", "n": n,
               "dims": [[list(p.parts), d] for p, d in dims]}
    lines = ["specht n=%d: %d classes" % (n, len(dims))]
    if gap_check:
        ok = specht_mod.dim_gap_check(n)
        payload["gap_check"] = ok
        payload["violations"] = [[list(p.parts), d]
                                 for p, d in specht_mod.gap_violations(n)]
        lines.append("gap check: %s" % ok)
    _emit(payload, output, golden, lines)


@main.command()
def info():
    """The arithmetic backend and the Python version, as JSON."""
    payload = {"command": "info",
               "backend": rings._Q.__name__,
               "python": platform.python_version()}
    click.echo(json.dumps(payload, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
