"""The benchmark's workloads: fixed lists of `lk` commands.

Every pass of a workload runs each command of its list once, in an order
drawn from the seed; no (n, l, modulus) repeats, so every command pays for
its own T(n) as a separate `lk` invocation would.  See README.md for why
each workload was chosen.
"""

from __future__ import annotations

import random


def kernel_points(n):
    """The values of l at which the kernel workloads cut T(n): the five
    roots of the reducibility locus and l = r^2, which is not on it."""
    return ["r", "-r^3", "1/r^%d" % (n - 3), "-1/r^%d" % (n - 3),
            "1/r^%d" % (2 * n - 3), "r^2"]


def _kernels(sizes, cyclotomic):
    ops = []
    for n in sizes:
        for l_expr in kernel_points(n):
            args = ["kernel", "--n", str(n), "--l", l_expr]
            if cyclotomic:
                args += ["--modulus", "cyclotomic:%d" % (4 * n)]
            ops.append(args)
    return ops


WORKLOADS = {
    "locus-generic": [["locus", "--n", str(n)] for n in (4, 5)],
    "kernel-qr": _kernels((4, 5, 6), cyclotomic=False),
    "kernel-cyclotomic": _kernels((5, 6, 7), cyclotomic=True),
    "relations": [["verify", "--n", str(n)] for n in (5, 6, 7, 8)],
}


def operations(workload, seed):
    """The workload's commands in the order the seed gives."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r; one of %s"
                         % (workload, ", ".join(WORKLOADS)))
    ops = [list(args) for args in WORKLOADS[workload]]
    random.Random(seed).shuffle(ops)
    return ops
