"""Trace spans against the deterministic sim clock.

Per-epoch trace spans carry the cycle boundaries and energy integrals
the simulator also records as ``TimelineSample``s; this suite pins
the two views against each other on a corpus scenario, on every
engine this machine can run — and proves that tracing leaves the
results themselves engine-invariant (diagnostics included)."""

import pytest

from repro.bench.golden import diff_payloads
from repro.engine import PYTHON, available_engines
from repro.experiment import Experiment
from repro.obs.trace import TraceRecorder, set_recorder
from repro.orchestration.serialize import (
    run_result_from_dict,
    run_result_to_dict,
)
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.sim.runner import ExperimentRunner

CASE = ("storm-2c-s000", "cooperative")


def _traced_run(engine, monkeypatch):
    """One corpus run on ``engine`` with a fresh recorder; fresh runner
    so a cache hit can never hide an engine's own epoch stream."""
    name, policy = CASE
    monkeypatch.setenv("REPRO_ENGINE", engine)
    entry = corpus_scenario(name)
    rec = TraceRecorder()
    set_recorder(rec)
    result = ExperimentRunner().run(
        Experiment.for_scenario(
            entry.scenario,
            system=corpus_config(entry.n_cores),
            policy=policy,
        )
    )
    return result, rec.events()


@pytest.mark.parametrize("engine", available_engines())
class TestEpochSpansMatchTimeline:
    def test_measured_epochs_agree_with_timeline_samples(
        self, engine, monkeypatch
    ):
        result, events = _traced_run(engine, monkeypatch)
        epochs = [e for e in events if e["name"] == "epoch"]
        assert epochs, "traced run recorded no epoch spans"

        # Epoch spans chain: each starts where the previous ended.
        boundaries = [
            (e["args"]["cycle_start"], e["args"]["cycle_end"]) for e in epochs
        ]
        assert boundaries[0][0] == 0
        for (_, end), (start, _) in zip(boundaries, boundaries[1:]):
            assert start == end

        # Every measured epoch span has a timeline sample at its end
        # cycle with the same energy integrals and powered-way count.
        samples = {sample.cycle: sample for sample in result.timeline}
        measured = [e for e in epochs if e["args"]["measuring"]]
        assert measured, "no epoch spans inside the measured window"
        for event in measured:
            args = event["args"]
            sample = samples.get(args["cycle_end"])
            assert sample is not None, (
                f"epoch span ends at cycle {args['cycle_end']} but the "
                f"timeline has no sample there"
            )
            assert args["static_energy_nj"] == sample.static_energy_nj
            assert args["dynamic_energy_nj"] == sample.dynamic_energy_nj
            assert args["powered_ways"] == sample.powered_ways

    def test_run_span_epoch_count_matches_diagnostics(self, engine, monkeypatch):
        result, events = _traced_run(engine, monkeypatch)
        (run,) = [e for e in events if e["name"] == "run"]
        epochs = [e for e in events if e["name"] == "epoch"]
        assert run["args"]["epochs"] == len(epochs)
        assert result.diagnostics["epochs"] == len(epochs)


@pytest.mark.skipif(
    len(available_engines()) < 2, reason="only one engine on this machine"
)
class TestTracedEngineInvariance:
    def test_traced_results_identical_across_engines(self, monkeypatch):
        """Tracing must not break the bit-exactness contract: every
        engine produces the same payload — diagnostics included."""
        reference = run_result_to_dict(_traced_run(PYTHON, monkeypatch)[0])
        assert reference["diagnostics"]["epochs"] > 0
        for engine in available_engines():
            if engine == PYTHON:
                continue
            payload = run_result_to_dict(_traced_run(engine, monkeypatch)[0])
            assert diff_payloads(reference, payload) == [], engine


class TestDiagnosticsSerialization:
    def test_untraced_payload_omits_diagnostics(self, tiny_two_core):
        result = ExperimentRunner().run(
            Experiment("G2-4", "ucp", tiny_two_core)
        )
        assert result.diagnostics == {}
        payload = run_result_to_dict(result)
        assert "diagnostics" not in payload

    def test_traced_diagnostics_roundtrip(self, tiny_two_core, monkeypatch):
        set_recorder(TraceRecorder())
        result = ExperimentRunner().run(
            Experiment("G2-4", "ucp", tiny_two_core)
        )
        assert set(result.diagnostics) == {"epochs", "events"}
        payload = run_result_to_dict(result)
        assert payload["diagnostics"] == result.diagnostics
        restored = run_result_from_dict(payload)
        assert restored.diagnostics == result.diagnostics


def test_trace_synthesis_is_its_own_span():
    """Each distinct trace is generated under one ``trace``-category
    span inside the task that first needs it; a cached trace records
    nothing."""
    rec = TraceRecorder()
    set_recorder(rec)
    runner = ExperimentRunner()
    config = corpus_config(2)
    runner.trace_for("lbm", config)
    runner.trace_for("lbm", config)
    spans = [e for e in rec.events() if e.get("cat") == "trace"]
    assert [(e["name"], e["ph"]) for e in spans] == [("generate_trace", "X")]
    assert spans[0]["args"] == {
        "benchmark": "lbm", "refs": config.refs_per_core,
    }
