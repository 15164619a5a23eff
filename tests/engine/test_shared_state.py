"""The compiled kernel shares machine state with its Python owners for
a whole run.

``_Marshal`` takes the address of every owner's array once, at run
start.  A warmup reset, a phase change, an arrival, a departure, a
power-gating invalidation or a forced takeover completion that rebound
or resized one of those arrays would leave the kernel writing to a
stale buffer, so after a run that crosses all of them every address
must still be the owner's current array.
"""

import ctypes

import pytest

from repro.cache.set_associative import SetAssociativeCache
from repro.core.takeover import TakeoverEngine
from repro.engine import COMPILED, available_engines, compiled
from repro.scenarios.generate import corpus_config
from repro.scenarios.model import (
    Scenario,
    core_arrive,
    core_depart,
    phase_change,
)
from repro.sim.cpu import COLUMN_FIELDS
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

SCENARIO = Scenario(
    "shared-state",
    (
        core_arrive(0, "lbm"),
        core_arrive(1, "namd", 156_017),
        phase_change(0, "mcf", 200_000),
        core_depart(1, 236_481),
    ),
)


def _simulator(policy="cooperative"):
    config = corpus_config(2)
    runner = ExperimentRunner()
    return CMPSimulator.for_scenario(
        config,
        SCENARIO,
        policy,
        lambda benchmark: runner.trace_for(benchmark, config),
        governor="coordinated",
    )


def _counting(monkeypatch, cls, name, counts):
    original = getattr(cls, name)

    def counted(self, *args):
        counts[name] = counts.get(name, 0) + 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no compiled engine"
)
def test_kernel_addresses_still_match_their_owners_after_a_run(monkeypatch):
    marshals = []

    class RecordingMarshal(compiled._Marshal):
        def __init__(self, *args):
            super().__init__(*args)
            marshals.append(self)

    monkeypatch.setattr(compiled, "_Marshal", RecordingMarshal)
    counts = {}
    _counting(monkeypatch, SetAssociativeCache, "invalidate_way", counts)
    _counting(monkeypatch, TakeoverEngine, "force_complete", counts)
    sim = _simulator()
    config = sim.config
    result = sim.run(COMPILED)

    # Guard the guard: the run went through the kernel and crossed the
    # warmup reset, every kind of schedule event, power-gating
    # invalidations and a forced takeover completion that flushed ways.
    (marshal,) = marshals
    assert sim._measuring
    labels = {label for sample in result.timeline for label in sample.events}
    assert {"arrive:core1=namd", "phase:core0=mcf", "depart:core1"} <= labels
    assert counts["invalidate_way"] > 0
    assert counts["force_complete"] > 0
    assert sim.stats.transitions_forced > 0

    policy = sim.policy
    stats = sim.stats
    owners = {
        "core_" + name: getattr(sim.core_columns, name)
        for name in COLUMN_FIELDS
    }
    owners.update(
        l1_hits=sim.hierarchy.l1_hits,
        l1_misses=sim.hierarchy.l1_misses,
        l1_writebacks=sim.hierarchy.l1_writebacks,
        llc_occ=sim.cache.core_occupancy,
        probe_mask=policy._probe_masks,
        probe_count=policy._probe_counts,
        fill_count=policy._fill_counts,
        fill_ways=policy._fill_table,
        ways_probed_sum=stats.ways_probed_sum,
        probe_events=stats.probe_events,
        writeback_accesses=stats.writeback_accesses,
        demand_accesses=stats.demand_accesses,
        demand_hits=stats.demand_hits,
        bank_free_at=sim.memory._bank_free_at,
        dvfs_entries=sim.dvfs.entries,
        dvfs_stall=sim.dvfs.stall,
    )
    ctx = marshal.ctx
    for field, owner in owners.items():
        assert getattr(ctx, field) == owner.buffer_info()[0], field
    for column in ("tags", "mapped", "stamp", "owner", "dirty", "clock"):
        owner = getattr(sim.cache, column)
        assert getattr(ctx, "llc_" + column) == owner.buffer_info()[0], column
    for field, column in (
        ("l1_tags", "tags"), ("l1_stamp", "stamp"), ("l1_owner", "owner"),
        ("l1_dirty", "dirty"), ("l1_clock", "clock"),
        ("l1_occ", "core_occupancy"),
    ):
        table = (ctypes.c_int64 * config.n_cores).from_address(
            getattr(ctx, field)
        )
        assert list(table) == [
            getattr(l1, column).buffer_info()[0] for l1 in sim.hierarchy.l1
        ], field
