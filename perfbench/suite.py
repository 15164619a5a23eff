"""Names shared by the benchmark's processes, its tests and BENCHMARK.json.

Nothing here imports the program, so the parent process stays light
and its own start-up never shows in a measurement.
"""

from __future__ import annotations

import re

#: the seed whose results are pinned in digests.json (SystemConfig's
#: default, so these are the results the figure drivers produce)
DEFAULT_SEED = 2012

#: worker processes of the sweeps that fill resume-warm's store (set-up,
#: not timed)
POOL_JOBS = 2

#: scale of the Table 4 grid: the `repro sweep` defaults
GRID_REFS = {2: 60_000, 4: 50_000}

#: workload name -> why it exists (mirrored in BENCHMARK.json)
WORKLOADS = {
    "grid-cold": (
        "full Table 4 grid, both geometries, serial into an empty store: "
        "figure traffic, dominated by trace generation and the engine"
    ),
    "scenario-dvfs": (
        "the 50 generated corpus schedules x {cooperative, ucp} x {no "
        "governor, coordinated} with short epochs: boundary-heavy engine use"
    ),
    "resume-warm": (
        "fresh repro sweep/report processes over a filled store: import, "
        "store, deserialization and tables; bypasses the engine"
    ),
}

#: (name, unit, better, bound) of every end-to-end metric.  Ten-seed
#: spreads on a shared 2-CPU host reach 0.1-0.2 for times and rates
#: (README.md), so their bounds are the largest BENCHMARK.json allows;
#: peak RSS spreads below 0.02.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sim_refs_per_s", "1/s", "higher", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("task_ms.p50", "ms", "lower", 0.25),
    ("task_ms.p90", "ms", "lower", 0.25),
    ("first_table_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better) of every per-layer metric of a traced run
PER_LAYER = (
    ("python.startup_s", "s", "lower"),
    ("repro.import_s", "s", "lower"),
    ("engine.kernel_load_s", "s", "lower"),
    ("workloads.generate_trace.self_s", "s", "lower"),
    ("workloads.generate_trace.calls", "count", "lower"),
    ("sim.build.self_s", "s", "lower"),
    ("sim.run.self_s", "s", "lower"),
    ("sim.run.calls", "count", "lower"),
    ("sim.refs", "count", "higher"),
    ("sim.run.ns_per_ref", "ns", "lower"),
    ("engine.spans", "count", "lower"),
    ("engine.span_s", "s", "lower"),
    ("engine.refs_per_span", "count", "higher"),
    ("partitioning.epoch.self_s", "s", "lower"),
    ("partitioning.epoch.calls", "count", "lower"),
    ("dvfs.decide.self_s", "s", "lower"),
    ("dvfs.decide.calls", "count", "lower"),
    ("orchestration.store.put_s", "s", "lower"),
    ("orchestration.store.put_calls", "count", "lower"),
    ("orchestration.store.get_s", "s", "lower"),
    ("orchestration.store.get_calls", "count", "lower"),
    ("orchestration.store.probe_s", "s", "lower"),
    ("orchestration.store.probe_calls", "count", "lower"),
    ("orchestration.store.hit_ratio", "ratio", "higher"),
    ("orchestration.serialize_s", "s", "lower"),
    ("orchestration.deserialize_s", "s", "lower"),
    ("orchestration.report_s", "s", "lower"),
    ("orchestration.executor.prefetch_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def benchmark_document() -> dict:
    """The BENCHMARK.json this suite describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
