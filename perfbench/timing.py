"""Order statistics and the calibration probe used by the benchmark.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(p/100 * n), so every reported value
is one that was actually measured.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence

#: what :func:`probe` takes at reference speed; times reported "at
#: reference speed" are measured times x PROBE_REFERENCE_S / probe time
PROBE_REFERENCE_S = 0.0005

#: a task time is scaled by the probes up to this many tasks around it
LOCAL_PROBES = 8

#: what a reference process (``child.py reference``: start-up, numpy
#: import, REFERENCE_PROBES probes) takes, spawn to exit, at reference
#: speed; CLI workloads and set-up samples scale by PROCESS_REFERENCE_S
#: / its median time
PROCESS_REFERENCE_S = 0.15

#: probes a reference process takes after its imports
REFERENCE_PROBES = 100


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def probe() -> float:
    """Seconds one fixed slice of interpreter work takes right now.

    Sampled between the workload's steps to track how fast the machine
    is running while the workload runs (co-tenants on a shared host
    slow it by tens of percent, minute to minute).
    """
    started = time.perf_counter()
    acc = 0
    table: dict = {}
    for i in range(4000):
        acc += i * i
        table[i & 255] = acc
    return time.perf_counter() - started


def reference_scale(probes: Sequence[float]) -> float:
    """Factor converting times measured alongside ``probes`` to
    reference speed: above 1 when the machine ran fast, below 1 when
    co-tenants slowed it; 1 when nothing was probed."""
    return PROBE_REFERENCE_S / median(probes) if probes else 1.0


def process_scale(walls: Sequence[float]) -> float:
    """:func:`reference_scale` for whole processes: the factor from the
    spawn-to-exit times of reference processes run next to the
    workload's own (1 when there were none)."""
    return PROCESS_REFERENCE_S / median(walls) if walls else 1.0
