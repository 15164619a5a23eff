"""Self time on nested spans, dump merging, and wrappers that leave the
program's functions exactly as they found them."""

import sys
import types

import pytest

import layers
from spans import Instrumentation, SpanRecorder, Target, merge


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enter("outer")          # t=0
    clock.now = 2.0
    rec.enter("inner")
    clock.now = 5.0
    rec.exit()                  # inner: 3
    clock.now = 6.0
    rec.enter("leaf")
    clock.now = 7.0
    rec.exit()                  # leaf: 1
    clock.now = 10.0
    rec.exit()                  # outer: 10 total, 6 self
    assert rec.self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert rec.total_s == {"outer": 10.0, "inner": 3.0, "leaf": 1.0}
    assert rec.calls == {"outer": 1, "inner": 1, "leaf": 1}
    assert sum(rec.self_s.values()) == rec.root_s == 10.0


def test_recursive_layer_counts_each_second_once():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enter("run")
    clock.now = 1.0
    rec.enter("run")
    clock.now = 3.0
    rec.exit()
    clock.now = 4.0
    rec.exit()
    assert rec.self_s["run"] == 4.0
    assert rec.calls["run"] == 2
    assert rec.root_s == 4.0


def test_merge_sums_processes_and_keeps_first_marks():
    a, b = SpanRecorder(FakeClock()), SpanRecorder(FakeClock())
    for rec, amount in ((a, 2), (b, 3)):
        rec.enter("x")
        rec.exit()
        rec.count("sim.refs", amount)
    a.marks["store_open"] = 5.0
    b.marks["store_open"] = 4.0
    merged = merge([a.to_dict(), b.to_dict()])
    assert merged["calls"] == {"x": 2}
    assert merged["counts"] == {"sim.refs": 5}
    assert merged["marks"] == {"store_open": 4.0}


def _bindings():
    import repro
    import repro.sim.runner
    import repro.workloads.trace
    from repro.dvfs import governors
    from repro.orchestration import serialize, store
    from repro.sim.simulator import CMPSimulator

    return {
        "normalized_energy": repro.sim.runner.ExperimentRunner.__dict__["normalized_energy"],
        "runner.generate_trace": repro.sim.runner.generate_trace,
        "trace.generate_trace": repro.workloads.trace.generate_trace,
        "repro.generate_trace": repro.generate_trace,
        "run": CMPSimulator.__dict__["run"],
        "init": CMPSimulator.__dict__["__init__"],
        "put": store.ResultStore.__dict__["put"],
        "to_dict": serialize.run_result_to_dict,
        "fixed_decide": governors.FixedGovernor.__dict__["decide"],
        "base_decide": governors.BaseGovernor.__dict__["decide"],
    }


@pytest.mark.parametrize("spans", [False, True])
def test_wrappers_leave_the_originals_in_place(spans):
    before = _bindings()
    rec = SpanRecorder()
    instrumentation = Instrumentation(rec, layers.TARGETS, spans=spans)
    with instrumentation:
        during = _bindings()
        assert during["run"] is not before["run"]
        if spans:
            assert during["fixed_decide"] is not before["fixed_decide"]
            assert during["normalized_energy"] is not before["normalized_energy"]
            assert type(during["normalized_energy"]) is type(before["normalized_energy"])
            assert during["runner.generate_trace"] is not before["runner.generate_trace"]
            assert during["repro.generate_trace"] is not before["repro.generate_trace"]
        else:
            assert during["put"] is before["put"]
            assert during["fixed_decide"] is before["fixed_decide"]
    assert _bindings() == before
    assert instrumentation.leftover_wrappers() == []


def test_copies_imported_while_installed_are_restored():
    import repro.workloads.trace as trace_module

    original = trace_module.generate_trace
    instrumentation = Instrumentation(
        SpanRecorder(),
        [Target("repro.workloads.trace", "generate_trace", "workloads.generate_trace")],
        spans=True,
    )
    late = types.ModuleType("repro._perfbench_late_import")
    with instrumentation:
        sys.modules[late.__name__] = late
        late.generate_trace = trace_module.generate_trace  # a from-import
        assert late.generate_trace is not original
    try:
        assert late.generate_trace is original
        assert trace_module.generate_trace is original
    finally:
        del sys.modules[late.__name__]


def test_traced_simulation_records_layers_and_counts(tiny_config):
    from repro.sim.runner import ExperimentRunner
    from repro.experiment import Experiment

    rec = SpanRecorder()
    with Instrumentation(rec, layers.TARGETS, spans=True):
        ExperimentRunner().run(Experiment("G2-1", "cooperative", tiny_config))
    assert rec.calls["sim.run"] == 1
    assert rec.calls["sim.build"] == 1
    assert rec.calls["workloads.generate_trace"] == 2
    assert rec.calls["partitioning.epoch"] >= 1
    assert rec.counts["sim.refs"] >= 2 * tiny_config.refs_per_core
    assert all(value >= 0 for value in rec.self_s.values())
    assert sum(rec.self_s.values()) == pytest.approx(rec.root_s)
    metrics = layers.per_layer(rec.to_dict(), import_s=0.0, startup_s=0.0)
    assert metrics["sim.run.calls"] == 1
    assert metrics["sim.run.ns_per_ref"] > 0


def test_untraced_instrumentation_times_nothing(tiny_config):
    from repro.sim.runner import ExperimentRunner
    from repro.experiment import Experiment

    rec = SpanRecorder()
    with Instrumentation(rec, layers.TARGETS, spans=False):
        ExperimentRunner().run(Experiment("G2-1", "unmanaged", tiny_config))
    assert rec.calls == {}
    assert rec.root_s == 0.0
    assert rec.counts["sim.refs"] > 0


@pytest.fixture
def tiny_config():
    from repro.sim.config import scaled_two_core

    return scaled_two_core(refs_per_core=20_000)
