"""A fixed job that gauges how fast the machine runs at the moment.

run.py times it in a fresh interpreter, again and again between the
operations of a run, and reports the median pass time over its median
time (``wall_per_ref``): a shared machine's speed drifts by tens of
percent over minutes, and the ratio cancels much of that drift.  It does
what permsym spends its time on, roughly: Python loops over tuples and
dicts, and dense numpy on one BLAS thread.  Never change it: a changed
job changes every ratio.
"""

import itertools
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

counts = {}
for p in itertools.permutations(range(9)):
    key = tuple(sorted(p[:4]))
    counts[key] = counts.get(key, 0) + p[0] * p[-1]
a = np.random.default_rng(0).standard_normal((300, 300))
lowest = np.linalg.eigvalsh(a + a.T)[0]
for _ in range(40):
    b = a @ a.T
assert len(counts) == 126 and np.isfinite(lowest) and np.isfinite(b[0, 0])
