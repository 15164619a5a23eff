"""The program's layers as the benchmark sees them: which public
functions to wrap, and how a traced process's spans become the
per-layer metrics of ``suite.PER_LAYER``.
"""

from __future__ import annotations

from typing import Any

from spans import SpanRecorder, Target


def _count_refs(rec: SpanRecorder, args: tuple, result: Any) -> None:
    simulator = args[0]
    rec.count("sim.refs", sum(core.refs_done for core in simulator.cores))


def _count_lookup(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.count("store.lookups")
    if result:
        rec.count("store.hits")


def _mark_store_open(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.mark("store_open")


_STORE = "repro.orchestration.store"
_SERIALIZE = "repro.orchestration.serialize"

#: every wrapped public function; ``untraced`` ones feed end-to-end
#: metrics (simulated references, set-up instants)
TARGETS = [
    Target("repro.engine.build", "load_kernel", "engine.kernel_load"),
    Target("repro.workloads.trace", "generate_trace", "workloads.generate_trace"),
    Target("repro.sim.simulator", "CMPSimulator.__init__", "sim.build"),
    Target("repro.sim.simulator", "CMPSimulator.run", "sim.run",
           _count_refs, untraced=True),
    Target("repro.partitioning.base", "BaseSharedCachePolicy.epoch",
           "partitioning.epoch"),
    Target("repro.dvfs.governors", "BaseGovernor.decide", "dvfs.decide"),
    Target(_STORE, "ResultStore.__init__", "orchestration.store.open",
           _mark_store_open, untraced=True),
    Target(_STORE, "ResultStore.put", "orchestration.store.put"),
    Target(_STORE, "ResultStore.get", "orchestration.store.get", _count_lookup),
    Target(_STORE, "ResultStore.probe", "orchestration.store.probe",
           _count_lookup),
    Target(_SERIALIZE, "run_result_to_dict", "orchestration.serialize"),
    Target(_SERIALIZE, "alone_result_to_dict", "orchestration.serialize"),
    Target(_SERIALIZE, "run_result_from_dict", "orchestration.deserialize"),
    Target(_SERIALIZE, "alone_result_from_dict", "orchestration.deserialize"),
    Target("repro.sim.runner", "ExperimentRunner.normalized_weighted_speedup",
           "orchestration.report"),
    Target("repro.sim.runner", "ExperimentRunner.normalized_energy",
           "orchestration.report"),
    Target("repro.orchestration.executor", "SweepExecutor.prefetch",
           "orchestration.executor.prefetch"),
]


def record_kernel_spans(rec: SpanRecorder) -> None:
    """Copy the compiled kernel's span histograms (``repro.obs``) into
    the recorder's counters; they are non-empty only when metrics were
    enabled in this process."""
    from repro.obs.metrics import snapshot

    for metric, name in (
        ("repro_kernel_span_seconds", "engine.span_s"),
        ("repro_kernel_span_refs", "engine.span_refs"),
    ):
        for sample in snapshot().get(metric, {}).get("samples", ()):
            suffix = sample.get("suffix")
            if suffix == "_sum":
                rec.count(name, sample["value"])
            elif suffix == "_count" and name == "engine.span_s":
                rec.count("engine.spans", int(sample["value"]))


def per_layer(dump: dict[str, Any], *, import_s: float,
              startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from its merged dump."""
    self_s = dump["self_s"]
    calls = dump["calls"]
    counts = dump["counts"]
    total_s = dump["total_s"]
    refs = counts.get("sim.refs", 0)
    spans = counts.get("engine.spans", 0)
    lookups = counts.get("store.lookups", 0)
    metrics = {
        "python.startup_s": startup_s,
        "repro.import_s": import_s,
        "engine.kernel_load_s": self_s.get("engine.kernel_load", 0.0),
        "workloads.generate_trace.self_s": self_s.get("workloads.generate_trace", 0.0),
        "workloads.generate_trace.calls": calls.get("workloads.generate_trace", 0),
        "sim.build.self_s": self_s.get("sim.build", 0.0),
        "sim.run.self_s": self_s.get("sim.run", 0.0),
        "sim.run.calls": calls.get("sim.run", 0),
        "sim.refs": refs,
        "sim.run.ns_per_ref": (
            total_s.get("sim.run", 0.0) / refs * 1e9 if refs else 0.0
        ),
        "engine.spans": spans,
        "engine.span_s": counts.get("engine.span_s", 0.0),
        "engine.refs_per_span": (
            counts.get("engine.span_refs", 0) / spans if spans else 0.0
        ),
        "partitioning.epoch.self_s": self_s.get("partitioning.epoch", 0.0),
        "partitioning.epoch.calls": calls.get("partitioning.epoch", 0),
        "dvfs.decide.self_s": self_s.get("dvfs.decide", 0.0),
        "dvfs.decide.calls": calls.get("dvfs.decide", 0),
        "orchestration.store.hit_ratio": (
            counts.get("store.hits", 0) / lookups if lookups else 0.0
        ),
        "orchestration.serialize_s": self_s.get("orchestration.serialize", 0.0),
        "orchestration.deserialize_s": self_s.get("orchestration.deserialize", 0.0),
        "orchestration.report_s": self_s.get("orchestration.report", 0.0),
        "orchestration.executor.prefetch_s": self_s.get(
            "orchestration.executor.prefetch", 0.0
        ),
    }
    for op in ("put", "get", "probe"):
        layer = f"orchestration.store.{op}"
        metrics[f"{layer}_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}_calls"] = calls.get(layer, 0)
    return metrics
