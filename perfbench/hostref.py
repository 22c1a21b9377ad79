"""A fixed reference kernel timed beside the workload, to read how fast
the host runs while the workload is measured.

On a host whose cpus are shared with other tenants, the speed of one
thread drifts by 10-20% over minutes (cache and memory-bandwidth
contention, not steal: thread cpu time drifts with wall time).  A warm
query and this kernel slow down together, so their ratio is far steadier
than either alone.  The kernel is fixed work that does not touch the
program under test: a Python integer loop, a numpy sort and a bincount
on arrays made from a constant seed (~0.5 MB, small enough to leave the
searcher's cached blocks in the cache).  The timed window alternates
slices of queries with blocks of reference calls, so both see the same
host.

Latencies are reported as they would read on a host where one reference
call takes NOMINAL_S: ``measured * NOMINAL_S / median reference call``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.5e-3
_rng = np.random.default_rng(20240607)
_FLOATS = _rng.random(5000)
_INTS = _rng.integers(0, 1_000_000, 50_000)


def reference_op() -> float:
    x = np.sort(_FLOATS)
    y = np.bincount(_INTS % 50_000)
    t = 0
    for v in range(800):
        t += v * v
    return float(x[0]) + int(y[0]) + t


def time_reference(reps: int) -> list[float]:
    """Seconds per reference call, ``reps`` calls back to back."""
    out = []
    for _ in range(reps):
        a = time.perf_counter()
        reference_op()
        out.append(time.perf_counter() - a)
    return out


def speed_factor(ref_samples: list[float]) -> float:
    """NOMINAL_S over the median reference call: multiply a time by it to
    read the time at nominal host speed (divide a rate by it)."""
    return NOMINAL_S / statistics.median(ref_samples)
