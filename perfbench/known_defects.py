#!/usr/bin/env python3
"""Run, once each, the operations that fail on today's code.

    python3 perfbench/known_defects.py

The timed workloads hold no failing operation, so these stay in view here:
one line per operation with its exit code, the last line of its stderr and
what the output checks say.  The last line counts those that still fail.
A fix of ROADMAP item 2 or 3 shows as an operation that passes.
"""

from __future__ import annotations

import shutil
import sys
import time

import run
from workloads import Operation

DEFECTS = [
    # degree leakage from n_sym=12 on (ROADMAP item 3)
    (Operation("irreps", 3, xi=0.1, max_quanta=14), "exit 2"),
    # un-enumerated levels counted as spurious, coincidences (item 2a, 2c)
    (Operation("compare", 3, xi=-0.25, orbitals=10, max_quanta=4, tol=1e-4), "exit 3"),
    (Operation("compare", 3, xi=0.3, orbitals=10, max_quanta=4, tol=1e-4), "exit 3"),
    (Operation("compare", 4, xi=0.0, orbitals=8, max_quanta=4, tol=1e-4), "exit 3"),
    (Operation("compare", 4, xi=0.3, orbitals=8, max_quanta=4, tol=1e-4), "exit 3"),
    # eigenvector mixes orbital parities at strong coupling (item 2b)
    (Operation("ci", 3, xi=0.825, orbitals=10), "exit 2"),
    (Operation("ci", 4, xi=0.9, orbitals=8), "exit 2"),
]


def main() -> int:
    env = run.child_env()
    deadline = time.perf_counter() + 600.0
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    failing = 0
    try:
        for index, (op, expected) in enumerate(DEFECTS):
            result, _ = run.run_op(op, index, env, False, deadline)
            failing += result.failed
            verdict = "; ".join(filter(None, [result.note, *result.problems])) or "ok"
            print(f"permsym {' '.join(op.argv())}\n  expected {expected}, "
                  f"got: {verdict}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"{failing} of {len(DEFECTS)} known-defect operations still fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
