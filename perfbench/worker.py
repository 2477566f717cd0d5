"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SRC WORKLOAD SEED TRACE [SPANS]

Imports lkbmw from SRC, builds the workload's operation list, and runs
each `lk` command through ``lkbmw.cli.main`` in-process, one after another.
Prints one JSON object: the monotonic clock at the first operation's start
and the last one's end, the process's peak memory, and each command's exit
code and output.  With TRACE = 1 every layer is wrapped first and the
per-layer summary is added; SPANS, if given, is where the spans are
written.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import resource
import sys
import time


def peak_rss_mb():
    """Peak resident memory, in MB, of this process since it started or of
    any process it started.  VmHWM counts this process's own pages only:
    the ru_maxrss of a process spawned with vfork also counts its parent's."""
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh
                      if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kb, children_kb) / 1024.0


def main(argv):
    src, workload, seed, trace = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, src)
    import lkbmw.cli
    import workloads

    if not pathlib.Path(lkbmw.__file__).resolve().is_relative_to(
            pathlib.Path(src).resolve()):
        raise SystemExit("lkbmw was imported from %s, not from %s"
                         % (lkbmw.__file__, src))
    ops = workloads.operations(workload, int(seed))
    command = lkbmw.cli.main.main
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        command = tracer.wrap(tracing.COMMAND, command)

    results = []
    t_first = time.perf_counter()
    for args in ops:
        out, err = io.StringIO(), io.StringIO()
        code = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                command(args=list(args), prog_name="lk")
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an operation that fails is counted
                code = "%s: %s" % (type(exc).__name__, exc)
        results.append({"args": args, "code": code,
                        "s": time.perf_counter() - t0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    t_last = time.perf_counter()

    report = {"t_first": t_first, "t_last": t_last,
              "peak_rss_mb": peak_rss_mb(), "ops": results}
    if tracer is not None:
        report["layers"] = tracer.summary()
        if spans_path:
            tracer.write(spans_path)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
