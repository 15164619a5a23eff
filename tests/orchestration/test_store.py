"""The result store: round-trips, key stability, corruption recovery."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import COMPILED, available_engines
from repro.experiment import Experiment
import repro

from repro.orchestration.serialize import (
    SCHEMA_VERSION,
    alone_result_from_dict,
    alone_result_to_dict,
    alone_task_key,
    group_task_key,
    run_result_from_dict,
    run_result_to_dict,
    task_key,
)
from repro.orchestration.store import ResultStore, default_store_path
from repro.sim.runner import ExperimentRunner


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestTaskKeys:
    def test_key_is_hex_sha256(self, tiny_two_core):
        key = task_key("group", tiny_two_core, group="G2-4", policy="ucp")
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_key_depends_on_every_input(self, tiny_two_core):
        base = group_task_key(tiny_two_core, "G2-4", "ucp")
        assert group_task_key(tiny_two_core, "G2-4", "cooperative") != base
        assert group_task_key(tiny_two_core, "G2-5", "ucp") != base
        bumped = tiny_two_core.with_threshold(0.2)
        assert group_task_key(bumped, "G2-4", "ucp") != base

    def test_alone_key_ignores_core_count(self, tiny_two_core, tiny_four_core):
        # Alone runs always happen on the single-core variant, so the
        # group config's n_cores must not fragment the cache...
        two = alone_task_key(tiny_two_core, "lbm")
        assert alone_task_key(tiny_two_core.alone(), "lbm") == two
        # ...but a different geometry is a different run.
        assert alone_task_key(tiny_four_core, "lbm") != two

    def test_key_stable_across_processes(self, tiny_two_core):
        """Keys must not depend on per-process hash randomisation."""
        script = (
            "from repro.sim.config import SystemConfig\n"
            "from repro.cache.geometry import CacheGeometry\n"
            "from repro.orchestration.serialize import group_task_key\n"
            "config = SystemConfig(n_cores=2, l1=CacheGeometry(4096, 64, 4),\n"
            "                      l2=CacheGeometry(32768, 64, 8), l2_latency=15,\n"
            "                      epoch_cycles=30000, umon_interval=4,\n"
            "                      refs_per_core=12000, warmup_refs=2000,\n"
            "                      flush_bucket_cycles=2000)\n"
            "print(group_task_key(config, 'G2-4', 'ucp'))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        keys = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            ).stdout.strip()
            for hash_seed in ("0", "1", "12345")
        }
        assert keys == {group_task_key(tiny_two_core, "G2-4", "ucp")}


class TestSerialisation:
    def test_run_result_round_trip(self, tiny_two_core, store, monkeypatch):
        if COMPILED in available_engines():
            monkeypatch.setenv("REPRO_ENGINE", COMPILED)
        runner = ExperimentRunner()
        run = runner.run(Experiment("G2-4", "cooperative", tiny_two_core))
        key = group_task_key(tiny_two_core, "G2-4", "cooperative")
        store.put(key, run_result_to_dict(run), kind="group")
        clone = run_result_from_dict(store.get(key))
        # A fresh result equals its store round-trip field for field,
        # and its live PolicyStats has the container types a load builds.
        assert dataclasses.replace(clone, policy_stats=None) == (
            dataclasses.replace(run, policy_stats=None)
        )
        assert vars(clone.policy_stats) == vars(run.policy_stats)
        assert {
            name: type(value) for name, value in vars(clone.policy_stats).items()
        } == {name: type(value) for name, value in vars(run.policy_stats).items()}
        assert clone.ipcs() == run.ipcs()
        assert clone.dynamic_energy_nj == run.dynamic_energy_nj
        assert clone.static_power_nw == run.static_power_nw
        assert clone.policy_stats.takeover_events == run.policy_stats.takeover_events
        assert dict(clone.policy_stats.transfer_flush_buckets) == dict(
            run.policy_stats.transfer_flush_buckets
        )
        assert clone.takeover_event_fractions() == run.takeover_event_fractions()
        assert clone.policy_stats.flush_series(8) == run.policy_stats.flush_series(8)

    def test_flush_buckets_rekeyed_as_ints(self, tiny_two_core):
        runner = ExperimentRunner()
        run = runner.run(Experiment("G2-4", "ucp", tiny_two_core))
        clone = run_result_from_dict(run_result_to_dict(run))
        assert all(
            isinstance(bucket, int)
            for bucket in clone.policy_stats.transfer_flush_buckets
        )
        # and the rebuilt mapping still defaults missing buckets to 0
        assert clone.policy_stats.transfer_flush_buckets[10**6] == 0

    def test_alone_result_round_trip(self, tiny_two_core):
        runner = ExperimentRunner()
        result = runner.alone("lbm", tiny_two_core)
        clone = alone_result_from_dict(
            json.loads(json.dumps(alone_result_to_dict(result)))
        )
        assert clone == result  # frozen dataclass: field-exact


class TestResultStore:
    def test_round_trip_persistence(self, store):
        store.put("ab" * 32, {"x": 1.5, "y": [1, 2]}, kind="group")
        assert store.get("ab" * 32) == {"x": 1.5, "y": [1, 2]}
        assert store.has("ab" * 32)
        assert store.count() == 1

    def test_missing_key(self, store):
        assert store.get("cd" * 32) is None
        assert not store.has("cd" * 32)

    def test_corrupted_artifact_recovers(self, store):
        key = "ef" * 32
        store.put(key, {"x": 1}, kind="group")
        store.path_for(key).write_text("{truncated")
        assert store.get(key) is None
        assert not store.has(key), "corrupt artifact must be discarded"

    def test_wrong_schema_treated_as_miss(self, store):
        key = "12" * 32
        store.put(key, {"x": 1}, kind="group")
        envelope = json.loads(store.path_for(key).read_text())
        envelope["schema"] = SCHEMA_VERSION + 1
        store.path_for(key).write_text(json.dumps(envelope))
        assert store.get(key) is None

    def test_clean_removes_everything(self, store):
        for index in range(5):
            store.put(f"{index:02d}" + "0" * 62, {"i": index}, kind="alone")
        assert store.count() == 5
        assert store.clean() == 5
        assert store.count() == 0

    def test_default_store_path_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/tmp/elsewhere")
        assert str(default_store_path()) == "/tmp/elsewhere"
        monkeypatch.delenv("REPRO_STORE")
        assert str(default_store_path()).endswith("store")


class TestIndexAndProbe:
    """The per-shard append-only index: meta-only probes, repair,
    streaming keys."""

    @staticmethod
    def _forbid_payload_reads(store):
        def boom(key):
            raise AssertionError(f"payload parse for {key} on the fast path")

        store.get_envelope = boom

    def test_probe_fast_path_skips_payload_parse(self, store, tmp_path):
        store.put("ab" * 32, {"x": 1}, kind="group")
        fresh = ResultStore(tmp_path / "store")  # no in-memory state
        self._forbid_payload_reads(fresh)
        assert fresh.probe("ab" * 32)
        # (an absent key is allowed to take the brute-force fallback —
        # only present artifacts must answer from the index)
        assert not ResultStore(tmp_path / "store").probe("cd" * 32)

    def test_probe_detects_truncation(self, store, tmp_path):
        key = "ab" * 32
        store.put(key, {"x": list(range(100))}, kind="group")
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:-20])
        fresh = ResultStore(tmp_path / "store")
        assert not fresh.probe(key), "size mismatch must fail the probe"

    def test_probe_repairs_a_missing_index(self, store, tmp_path):
        key = "ab" * 32
        store.put(key, {"x": 1}, kind="group")
        for index in (tmp_path / "store").glob("*/.index.jsonl"):
            index.unlink()
        # first probe takes the brute-force fallback (full parse)...
        fallback = ResultStore(tmp_path / "store")
        assert fallback.probe(key)
        # ...and repairs the on-disk index, so a later process probes
        # without ever touching the payload again
        repaired = ResultStore(tmp_path / "store")
        self._forbid_payload_reads(repaired)
        assert repaired.probe(key)

    def test_put_many_batch(self, store, tmp_path):
        rows = [
            (f"{i:02d}" + "ef" * 31, {"i": i}, "group", {"label": f"t{i}"})
            for i in range(6)
        ]
        paths = store.put_many(rows)
        assert [p.exists() for p in paths] == [True] * 6
        fresh = ResultStore(tmp_path / "store")
        self._forbid_payload_reads(fresh)
        for key, _payload, _kind, _meta in rows:
            assert fresh.probe(key)
        assert store.get(rows[3][0]) == {"i": 3}

    def test_keys_stream_matches_fallback_scan(self, store, tmp_path):
        expected = set()
        for i in range(8):
            key = f"{i:02d}" + "9a" * 31
            store.put(key, {"i": i}, kind="alone")
            expected.add(key)
        assert set(store.keys()) == expected
        # deleting every index must not change the key set, only speed
        for index in (tmp_path / "store").glob("*/.index.jsonl"):
            index.unlink()
        assert set(ResultStore(tmp_path / "store").keys()) == expected

    def test_keys_skips_stale_index_entries(self, store, tmp_path):
        store.put("ab" * 32, {"x": 1}, kind="group")
        store.put("cd" * 32, {"x": 2}, kind="group")
        store.path_for("ab" * 32).unlink()  # index line is now stale
        fresh = ResultStore(tmp_path / "store")
        assert set(fresh.keys()) == {"cd" * 32}
        assert fresh.count() == 1

    def test_reindex_recovers_from_garbage(self, store, tmp_path):
        store.put("ab" * 32, {"x": 1}, kind="group")
        index = store.path_for("ab" * 32).parent / ".index.jsonl"
        index.write_bytes(b'{"torn line\n' + index.read_bytes() + b"garbage\n")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.probe("ab" * 32), "torn lines must be skipped"
        assert fresh.reindex() == 1
        assert set(fresh.keys()) == {"ab" * 32}

    def test_fully_cached_resume_costs_index_only(self, store, tiny_two_core):
        """The acceptance path: planning a warm sweep must not parse a
        single artifact payload — probes answer from the index."""
        from repro.orchestration.executor import SweepExecutor

        specs = [
            Experiment("G2-4", policy, tiny_two_core)
            for policy in ("ucp", "cooperative")
        ]
        with SweepExecutor(store, max_workers=1, pool="serial") as seeder:
            computed, _ = seeder.prefetch(specs)
        assert computed > 0

        resumed_store = ResultStore(store.root)
        TestIndexAndProbe._forbid_payload_reads(resumed_store)
        with SweepExecutor(resumed_store, max_workers=1) as resumed:
            alone_pending, main_pending, total = resumed.plan(specs)
            assert (alone_pending, main_pending) == ([], [])
            assert total == 4  # two group tasks + two alone dependencies
            assert resumed.prefetch(specs) == (0, total)


class TestStoreBackedRunner:
    def test_results_survive_runner_restart(self, store, tiny_two_core):
        first = ExperimentRunner(store=store)
        run = first.run(Experiment("G2-4", "cooperative", tiny_two_core))
        ws = first.weighted_speedup_of(run, tiny_two_core)

        second = ExperimentRunner(store=store)  # fresh memory caches
        cached = second.run(Experiment("G2-4", "cooperative", tiny_two_core))
        assert cached.ipcs() == run.ipcs()
        assert second.weighted_speedup_of(cached, tiny_two_core) == ws

    def test_disk_hit_skips_simulation(self, store, tiny_two_core, monkeypatch):
        seeded = ExperimentRunner(store=store)
        expected = seeded.run(Experiment("G2-4", "fair_share", tiny_two_core))
        seeded.alone("lbm", tiny_two_core)

        import repro.sim.runner as runner_module

        def explode(*args, **kwargs):
            raise AssertionError("simulated on a warm store")

        monkeypatch.setattr(runner_module, "CMPSimulator", explode)
        resumed = ExperimentRunner(store=store)
        hit = resumed.run(Experiment("G2-4", "fair_share", tiny_two_core))
        assert hit.ipcs() == expected.ipcs()
        resumed.alone("lbm", tiny_two_core)

    def test_store_and_memory_agree(self, store, tiny_two_core):
        runner = ExperimentRunner(store=store)
        computed = runner.run(Experiment("G2-4", "ucp", tiny_two_core))
        assert runner.run(Experiment("G2-4", "ucp", tiny_two_core)) is computed
