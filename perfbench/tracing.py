"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the public functions of each lkbmw layer from outside the
program: every name is patched where it is looked up at call time, so a
module that bound a function with ``from ... import`` gets the wrapper too,
and methods are patched on their classes.  Each call records a span
(layer, start, end, parent) in memory; the worker summarises the spans when
its pass ends and may write them out.
"""

from __future__ import annotations

import gzip
import importlib
import time

# layer name -> every (module, attribute) the program looks it up under
LAYERS = {
    "rings.poly_mul": [("lkbmw.rings", "Poly2.__mul__")],
    "rings.poly_divexact": [("lkbmw.rings", "Poly2.divexact")],
    "rings.poly_gcd": [("lkbmw.rings", "Poly2.gcd")],
    "rings.fe_reduce": [("lkbmw.rings", "_fe_reduce")],
    "rings.cyc_mul": [("lkbmw.rings", "CycElement.__mul__")],
    "rings.cyc_inverse": [("lkbmw.rings", "CycElement.inverse")],
    "rings.cyc_pow": [("lkbmw.rings", "CycElement.__pow__")],
    "linalg.bareiss_det_poly": [("lkbmw.linalg", "bareiss_det_poly")],
    "linalg.rref": [("lkbmw.linalg", "rref")],
    "linalg.mat_vec": [("lkbmw.linalg", "mat_vec")],
    "linalg.mat_mul": [("lkbmw.linalg", "mat_mul")],
    "xij.sum_matrix_direct": [("lkbmw.xij", "sum_matrix_direct"),
                              ("lkbmw.spectral", "sum_matrix_direct"),
                              ("lkbmw.cli", "sum_matrix_direct")],
    "rep.build_matrices": [("lkbmw.rep", "build_matrices"),
                           ("lkbmw.cli", "build_matrices")],
    "rep.verify_relations": [("lkbmw.rep", "verify_relations"),
                             ("lkbmw.cli", "verify_relations")],
    "spectral.t_matrix": [("lkbmw.spectral", "t_matrix")],
    "spectral.det_T": [("lkbmw.spectral", "det_T")],
    "spectral.reducibility_locus": [("lkbmw.spectral",
                                     "reducibility_locus")],
    "spectral.kernel": [("lkbmw.spectral", "kernel")],
    "spectral.named_verdicts": [("lkbmw.spectral",
                                 "KernelReport.named_verdicts")],
}

# the span the worker opens around each `lk` command it runs
COMMAND = "cli.command"


class Tracer:
    """Spans kept in memory, as (layer index, start, end, parent index,
    outermost) tuples; ``outermost`` is false for a span nested in a span of
    the same layer, so inclusive times do not count recursion twice."""

    def __init__(self):
        self.names = [COMMAND] + sorted(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self._stack = []
        self._active = [0] * len(self.names)
        self.counters = {"rings.poly_divexact.inexact": 0,
                         "rings.poly_gcd.trivial": 0,
                         "rings.poly_terms.max": 0}

    def wrap(self, name, fn, observe=None, errors=None):
        """A function that runs ``fn`` inside a span named ``name``.

        ``observe(result)`` sees every result; ``errors`` is an
        (exception type, counter) pair, and the counter goes up by one each
        time ``fn`` raises that exception."""
        nid = self._ids[name]
        spans, stack, active = self.spans, self._stack, self._active
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if errors is not None and isinstance(exc, errors[0]):
                    counters[errors[1]] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                spans[idx] = (nid, t0, t1, parent, active[nid] == 0)
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self):
        """Patch every layer of the (already imported) lkbmw package."""
        counters = self.counters

        def terms(result):
            if len(result.terms) > counters["rings.poly_terms.max"]:
                counters["rings.poly_terms.max"] = len(result.terms)

        def trivial_gcd(result):
            if all(key == (0, 0) for key in result.terms):
                counters["rings.poly_gcd.trivial"] += 1

        rings = importlib.import_module("lkbmw.rings")
        hooks = {"rings.poly_mul": {"observe": terms},
                 "rings.poly_divexact": {
                     "observe": terms,
                     "errors": (rings.ExactDivisionError,
                                "rings.poly_divexact.inexact")},
                 "rings.poly_gcd": {"observe": trivial_gcd}}
        for name, sites in LAYERS.items():
            opts = hooks.get(name, {})
            wrappers = {}
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                fn = getattr(owner, attr)
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(name, fn, **opts)
                setattr(owner, attr, wrappers[fn])

    def summary(self):
        """Per-layer calls, inclusive time (``.s``) and self time
        (``.self_s``), the counters, ``spectral.t_matrix.builds`` (calls
        that built T(n) rather than reading the cache) and the total time
        inside command spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        k = len(self.names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        builds = 0
        smd, tm = self._ids["xij.sum_matrix_direct"], self._ids[
            "spectral.t_matrix"]
        commands = 0.0
        for idx, (nid, t0, t1, parent, outer) in enumerate(spans):
            calls[nid] += 1
            self_s[nid] += (t1 - t0) - child[idx]
            if outer:
                incl[nid] += t1 - t0
            if parent < 0:
                commands += t1 - t0
            elif nid == smd and spans[parent][0] == tm:
                builds += 1
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".s"] = incl[nid]
            out[name + ".self_s"] = self_s[nid]
        out["spectral.t_matrix.builds"] = builds
        out["trace.commands_s"] = commands
        return out

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tlayer\tstart\tend\tparent\n")
            names = self.names
            for idx, (nid, t0, t1, parent, _) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                         % (idx, names[nid], t0, t1, parent))
