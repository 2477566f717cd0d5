"""The lkbmw benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of the repository (lkbmw is imported
from ./src).  Each pass runs the workload's whole list of `lk` commands in a
fresh, single-threaded interpreter (perfbench/worker.py); passes follow one
another until the next one would end after S seconds.  The outputs are then
checked (perfbench/checks.py), untimed.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The line before it reports the arithmetic backend, the
host and the speed of a reference loop timed before and after the passes.
A copy of the whole report, and with --trace 1 the spans of the first
pass, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# a fixed hash seed, so that two traced passes make exactly the same calls
WORKER_ENV = {"PYTHONHASHSEED": "0"}
REFERENCE_REPEATS = 15
# a run must end within 180 s, whatever --seconds says
DEADLINE_S = 170


def reference_loop():
    """Median seconds of a fixed pure-Python Fraction loop that runs no
    lkbmw code: a slow phase of the host shows here too."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 2000):
            s += Fraction(1, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload, seed, trace, timeout, spans_path=None):
    """One worker process; returns its report with its set-up time, run
    time and CPU time added."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), workload,
           str(seed), str(int(trace))]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, **WORKER_ENV)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=timeout)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["t_first"] - t_spawn
    report["run_s"] = report["t_last"] - report["t_first"]
    report["cpu_s"] = ((after.ru_utime + after.ru_stime)
                       - (before.ru_utime + before.ru_stime))
    report["wall_s"] = time.perf_counter() - t_spawn
    return report


def check_passes(passes, seed):
    """(attempted, failures, problems): an operation that exits other than
    0 is a failure, an output that does not pass its check a problem.  Each
    distinct output is checked once, so a pass that repeats an earlier
    pass's output byte for byte is correct when that output is."""
    import checks
    from lkbmw.rep import build_matrices
    from lkbmw.xij import sum_matrix_direct

    checker = checks.Checker(seed, sum_matrix_direct, build_matrices)
    verdicts = {}
    attempted = 0
    failures, problems = [], []
    for report in passes:
        for op in report["ops"]:
            attempted += 1
            if op["code"] != 0:
                failures.append("%s: exit %s %s" % (
                    " ".join(op["args"]), op["code"], op["stderr"].strip()))
                continue
            key = (tuple(op["args"]), op["stdout"])
            if key not in verdicts:
                verdicts[key] = checker.check(op["args"], op["stdout"])
                problems += ["%s: %s" % (" ".join(op["args"]), msg)
                             for msg in verdicts[key]]
    return attempted, failures, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lkbmw" / "__init__.py").is_file():
        sys.exit("error: no lkbmw sources under %s" % SRC)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    from lkbmw import rings

    if args.workload not in workloads.WORKLOADS:
        sys.exit("error: unknown workload %r" % args.workload)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    ref_before = reference_loop()
    passes = []
    t_start = time.perf_counter()
    # whole passes only; another starts while it is expected to end no
    # later than half a pass after the window
    while True:
        spans = OUT / ("spans-%s.tsv.gz" % stem) if (
            args.trace and not passes) else None
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - t_start))
        passes.append(run_pass(args.workload, args.seed, args.trace,
                               timeout, spans))
        elapsed = time.perf_counter() - t_start
        if elapsed + passes[-1]["wall_s"] / 2 > args.seconds:
            break
    ref_after = reference_loop()
    attempted, failures, problems = check_passes(passes, args.seed)

    if args.trace:
        summaries = [p["layers"] for p in passes]
        values = {}
        unsteady = []
        for name in summaries[0]:
            series = [s[name] for s in summaries]
            if isinstance(series[0], int):
                values[name] = series[0]
                if len(set(series)) > 1:
                    unsteady.append(name)
            else:
                values[name] = statistics.median(series)
        values["trace.pass_s"] = statistics.median(
            p["run_s"] for p in passes)
        values["trace.runner_s"] = statistics.median(
            p["run_s"] - p["layers"]["trace.commands_s"] for p in passes)
        values["trace.self_sum_s"] = statistics.median(
            sum(v for k, v in p["layers"].items() if k.endswith(".self_s"))
            for p in passes)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "run_s": statistics.fmean(p["run_s"] for p in passes),
            "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": "Fraction" if rings._Q is Fraction else "gmpy2",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "reference_loop_s": {"before": ref_before, "after": ref_after},
        "passes": len(passes),
        "operations_per_pass": len(passes[0]["ops"]),
        "pass_run_s": [p["run_s"] for p in passes],
        "operation_s": {" ".join(op["args"]): [
            p["ops"][i]["s"] for p in passes]
            for i, op in enumerate(passes[0]["ops"])},
        "failures": failures,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if args.trace:
        info["counts_differing_between_passes"] = unsteady
        info["layers"] = values
    (OUT / ("%s.json" % stem)).write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
