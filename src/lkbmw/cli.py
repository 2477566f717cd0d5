"""Command-line interface: machine-readable access to every computation,
with byte-stable JSON output and golden-file comparison.

Every computing command is registered through _command, which owns what the
commands share: their options, the cap on n, the parsing of --l and
--modulus, the exit code of each error and the output."""

from __future__ import annotations

import json
import os
import platform
import sys

import click

from . import rings, spectral, specht as specht_mod
from .rep import build_matrices, verify_relations
from .rings import (NonInvertibleError, PoleError, Specialization, cyclotomic,
                    parse_r_expression)
from .xij import sum_matrix_direct

EXIT_OK = 0
EXIT_GOLDEN_MISMATCH = 2
EXIT_INPUT_ERROR = 3
EXIT_SIZE_GUARD = 4

# the largest n any command accepts: T(n) has n(n-1)/2 rows, so far larger n
# would run for hours or exhaust memory
MAX_N = 12

# what parsing a spec or computing at it raises on input it cannot serve
# (ExpressionError is a ValueError); each exits with EXIT_INPUT_ERROR
INPUT_ERRORS = (ValueError, PoleError, NonInvertibleError, ZeroDivisionError)


def _fail(code, kind, message):
    click.echo("error: %s: %s" % (kind, message), err=True)
    sys.exit(code)


def _parse_spec(l_expr, modulus):
    """The Specialization named by --l and --modulus; raises one of
    INPUT_ERRORS when there is none."""
    if l_expr.strip() == "generic":
        if modulus is not None:
            raise ValueError("a modulus requires a specialized l")
        return Specialization.generic()
    value = parse_r_expression(l_expr)
    if modulus is None:
        return Specialization.l_to(value)
    if not modulus.startswith("cyclotomic:"):
        raise ValueError("modulus must look like cyclotomic:M")
    return Specialization.l_to_mod(
        value, cyclotomic(int(modulus.split(":", 1)[1])))


def _guard():
    value = os.environ.get("LK_SIZE_GUARD", "6")
    try:
        return int(value)
    except ValueError:
        _fail(EXIT_INPUT_ERROR, "input",
              "LK_SIZE_GUARD must be an integer, not %r" % value)


def _matrix_strings(M):
    return [[str(e) for e in row] for row in M]


def _emit(payload, output, golden, text_lines):
    rendered = json.dumps(payload, indent=1, sort_keys=True)
    click.echo("\n".join(text_lines) if output == "text" else rendered)
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


def _command(name, *options, specialized=True, l_required=False):
    """Register the decorated body as the computing command `name`.

    The command takes --n, then (when specialized) --l and --modulus, then
    the given click options, then --golden and --output.  It refuses n
    above MAX_N before anything is built, parses the spec and calls
    body(n, [spec,] **options), which returns (payload extras, text lines);
    the payload also names the command, n and the spec.  SizeGuardError
    exits with EXIT_SIZE_GUARD and INPUT_ERRORS with EXIT_INPUT_ERROR."""
    shared = [click.option("--n", type=int, required=True)]
    if specialized:
        shared += [click.option("--l", "l_expr", required=True)
                   if l_required else
                   click.option("--l", "l_expr", default="generic",
                                show_default=True),
                   click.option("--modulus", default=None)]

    def register(body):
        def run(n, output, golden, l_expr=None, modulus=None, **opts):
            if n > MAX_N:
                _fail(EXIT_SIZE_GUARD, "size-guard",
                      "n=%d exceeds the largest supported size %d"
                      % (n, MAX_N))
            payload = {"command": name, "n": n}
            kind = "parse"
            try:
                if specialized:
                    opts["spec"] = _parse_spec(l_expr, modulus)
                    payload["spec"] = str(opts["spec"])
                kind = "input"
                extras, lines = body(n, **opts)
            except spectral.SizeGuardError as exc:
                _fail(EXIT_SIZE_GUARD, "size-guard", str(exc))
            except INPUT_ERRORS as exc:
                _fail(EXIT_INPUT_ERROR, kind, str(exc))
            payload.update(extras)
            _emit(payload, output, golden, lines)

        run = _common(run)
        for option in reversed(shared + list(options)):
            run = option(run)
        return main.command(name=name, help=body.__doc__)(run)

    return register


@_command("matrices")
def matrices(n, spec):
    """The generator matrices G_i, E_i, G_i^{-1}."""
    mats = build_matrices(n, spec)
    return ({"G": [_matrix_strings(g) for g in mats.G],
             "E": [_matrix_strings(e) for e in mats.E],
             "Ginv": [_matrix_strings(g) for g in mats.Ginv]},
            ["matrices n=%d spec=%s size=%d" % (n, spec, mats.size)])


@_command("verify")
def verify(n, spec):
    """Check every defining relation on the matrices."""
    report = verify_relations(build_matrices(n, spec))
    return ({"all_pass": report.all_pass,
             "checks": [[name, ok] for name, ok in report.checks]},
            ["verify n=%d spec=%s: %s" % (
                n, spec, "all pass" if report.all_pass else
                "FAIL " + ", ".join(report.failures))])


@_command("sum-matrix")
def sum_matrix_cmd(n, spec):
    """The dense matrix T(n) of the summed conjugate operators."""
    T = sum_matrix_direct(n, spec)
    return ({"entries": _matrix_strings(T.entries)},
            ["sum-matrix n=%d spec=%s size=%d" % (n, spec, T.size)])


@_command("det")
def det(n, spec):
    """det T(n) over the chosen field."""
    value = spectral.det_T(n, spec, guard=_guard())
    return {"det": str(value)}, ["det T(%d) = %s" % (n, value)]


@_command("locus", specialized=False)
def locus(n):
    """Reducibility locus of det T(n) in the parameter l."""
    rep = spectral.reducibility_locus(n, guard=_guard())
    return ({"factors": [{"eps": f.eps, "k": f.k, "label": f.label(),
                          "multiplicity": f.multiplicity,
                          "factor": str(f.factor)} for f in rep.factors],
             "residual": str(rep.residual),
             "residual_l_degree": rep.residual.num.degree_l(),
             "l_denominator_power": rep.l_denominator_power,
             "scalar": str(rep.scalar)},
            ["locus n=%d:" % n] + ["  (%s)^%d" % (f.label(), f.multiplicity)
                                   for f in rep.factors])


@_command("kernel", l_required=True)
def kernel(n, spec):
    """Basis and dimension of K(n) = Ker T(n) at a specialized l."""
    rep = spectral.kernel(n, spec)
    return ({"dim": rep.dim,
             "basis": [[str(e) for e in v] for v in rep.basis],
             "named_verdicts": rep.named_verdicts()},
            ["kernel n=%d spec=%s dim=%d" % (n, spec, rep.dim)])


@_command("check-vectors",
          click.option("--case", "case", required=True,
                       type=click.Choice(list(spectral.ALL_CASES))),
          specialized=False)
def check_vectors(n, case):
    """Membership verdicts for the catalogued spanning vectors."""
    verdicts = spectral.check_named(n, case)
    ok = all(verdicts.values())
    return ({"case": case, "verdicts": verdicts, "all_pass": ok},
            ["check-vectors n=%d case=%s: %s" % (
                n, case, "all pass" if ok else "FAIL")])


@_command("rank-witness",
          click.option("--size", type=int, required=True),
          click.option("--rows", default=None,
                       help="comma-separated 1-based pool"),
          click.option("--cols", default=None,
                       help="comma-separated 1-based pool"),
          l_required=True)
def rank_witness(n, spec, size, rows, cols):
    """First invertible size x size submatrix of T(n), in lexicographic
    order with the columns outermost."""
    row_pool = [int(t) for t in rows.split(",")] if rows else None
    col_pool = [int(t) for t in cols.split(",")] if cols else None
    hit = spectral.rank_witness(n, spec, size, row_pool, col_pool)
    if hit is None:
        return {"size": size, "found": False}, ["rank-witness: none found"]
    wrows, wcols = hit
    d = spectral.submatrix_det(n, spec, wrows, wcols)
    return ({"size": size, "found": True, "rows": wrows, "cols": wcols,
             "det": str(d)},
            ["rank-witness n=%d size=%d rows=%s cols=%s det=%s"
             % (n, size, wrows, wcols, d)])


@_command("specht", click.option("--gap-check", is_flag=True, default=False),
          specialized=False)
def specht(n, gap_check):
    """Hook-length dimensions of the irreducibles of Sym(n)."""
    if n < 1:
        raise ValueError("n must be between 1 and %d" % MAX_N)
    dims = specht_mod.sym_dims(n)
    extras = {"dims": [[list(p.parts), d] for p, d in dims]}
    lines = ["specht n=%d: %d classes" % (n, len(dims))]
    if gap_check:
        ok = specht_mod.dim_gap_check(n)
        extras["gap_check"] = ok
        extras["violations"] = [[list(p.parts), d]
                                for p, d in specht_mod.gap_violations(n)]
        lines.append("gap check: %s" % ok)
    return extras, lines


@main.command()
def info():
    """The arithmetic backend and the Python version, as JSON."""
    payload = {"command": "info",
               "backend": rings._Q.__name__,
               "python": platform.python_version()}
    click.echo(json.dumps(payload, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
