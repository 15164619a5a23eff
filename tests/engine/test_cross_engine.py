"""Cross-engine equivalence on the committed scenario corpus.

The golden suites pin the *current default* engine against committed
fixtures; this suite pins the engines against **each other** on live
corpus schedules with governors.  Every engine available on this
machine must reproduce the pure-Python reference RunResult
bit-for-bit — per-core counters, energy integrals, flush timelines,
V/f trajectories and the full per-epoch timeline included.  A machine
without a C toolchain simply has no other engine to compare (and the
suite still proves the python fallback runs the corpus).
"""

from collections import Counter

import pytest

from repro.bench.golden import diff_payloads
from repro.engine import COMPILED, PYTHON, available_engines, compiled
from repro.engine.build import ST_EVBUF_FULL, load_kernel
from repro.experiment import Experiment
from repro.orchestration.serialize import run_result_to_dict
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

#: (corpus scenario, policy, governor): every corpus shape, both core
#: counts, the hook-bearing schemes (takeover, UCP migration, CPE) and
#: every governor kind — the configurations where an engine's policy
#: modelling could plausibly diverge.
SAMPLE = [
    ("storm-2c-s000", "cooperative", "coordinated"),
    ("consolidation-2c-s001", "ucp", None),
    ("churn-4c-s002", "cooperative", "ondemand"),
    ("diurnal-2c-s003", "fair_share", "fixed"),
    ("sparse-4c-s004", "cpe", None),
]

_OTHER_ENGINES = [name for name in available_engines() if name != PYTHON]


def _case_id(case) -> str:
    name, policy, governor = case
    return f"{name}-{policy}" + (f"-{governor}" if governor else "")


def _run(case, engine, monkeypatch) -> dict:
    """Run one sampled corpus cell on ``engine``; serialized result.

    A fresh runner per call: the runner memoises results by spec, and
    a cache hit would silently compare an engine against itself.
    """
    name, policy, governor = case
    monkeypatch.setenv("REPRO_ENGINE", engine)
    entry = corpus_scenario(name)
    runner = ExperimentRunner()
    result = runner.run(
        Experiment.for_scenario(
            entry.scenario,
            system=corpus_config(entry.n_cores),
            policy=policy,
            governor=governor,
        )
    )
    return run_result_to_dict(result)


@pytest.fixture(scope="module")
def references():
    """The pure-Python serialisations, computed once per module."""
    cache: dict = {}

    def get(case, monkeypatch) -> dict:
        key = _case_id(case)
        if key not in cache:
            cache[key] = _run(case, PYTHON, monkeypatch)
        return cache[key]

    return get


@pytest.mark.parametrize("engine", _OTHER_ENGINES or [PYTHON])
@pytest.mark.parametrize("case", SAMPLE, ids=_case_id)
def test_engines_reproduce_python_bit_for_bit(
    case, engine, references, monkeypatch
):
    expected = references(case, monkeypatch)
    actual = _run(case, engine, monkeypatch)
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{_case_id(case)}: engine {engine!r} diverged from the python "
        f"reference in {len(mismatches)} field(s):\n  "
        + "\n  ".join(mismatches[:20])
    )


def test_timelines_are_part_of_the_comparison(references, monkeypatch):
    """Guard the guard: the serialisation being diffed must actually
    carry the per-epoch timeline (a schema change that dropped it
    would quietly gut this suite)."""
    payload = references(SAMPLE[0], monkeypatch)
    assert payload["timeline"], "corpus scenario serialised no timeline"


#: corpus schedules whose arrivals land while a cooperative takeover
#: is in flight (some started by the arrival itself), so the compiled
#: warm sweep bails on a line that would complete a takeover vector
#: and resumes after Python warms it
MID_TAKEOVER_ARRIVALS = ["storm-2c-s001", "diurnal-4c-s001", "storm-4c-s001"]

_COMPILED_AVAILABLE = COMPILED in available_engines()


@pytest.mark.skipif(not _COMPILED_AVAILABLE, reason="no compiled engine")
@pytest.mark.parametrize("governor", [None, "coordinated"])
@pytest.mark.parametrize("name", MID_TAKEOVER_ARRIVALS)
def test_arrivals_mid_takeover_warm_in_the_kernel(
    name, governor, references, monkeypatch
):
    case = (name, "cooperative", governor)
    expected = references(case, monkeypatch)

    def no_python_warm(self, cores):
        raise AssertionError("compiled engine warmed cores in Python")

    bailed_lines = []
    warm_access = CMPSimulator._warm_access

    def counting_warm_access(*args):
        bailed_lines.append(args[1])
        return warm_access(*args)

    # _prewarm is the Python warm routine for run start and arrivals
    # alike; the compiled engine must never enter it.
    monkeypatch.setattr(CMPSimulator, "_prewarm", no_python_warm)
    monkeypatch.setattr(
        CMPSimulator, "_warm_access", staticmethod(counting_warm_access)
    )
    actual = _run(case, COMPILED, monkeypatch)
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, "\n  ".join(mismatches[:20])
    # Guard the guard: the kernel's completion bail actually fired, so
    # the resume path was exercised rather than a sweep that never met
    # an in-flight takeover.
    assert bailed_lines, f"{name}: no warm line completed a takeover"


#: cells run with an event buffer at the kernel's 2,048-triple
#: headroom, so every span and warm sweep bails with ST_EVBUF_FULL as
#: soon as one event triple is pending: cooperative takeovers with
#: flush-timeline events under a governor, a UCP run that completes a
#: transition (the EV_TRANS_DUR replay), and late arrivals whose warm
#: sweeps resume after the bail
EVBUF_BAILS = [
    ("storm-2c-s000", "cooperative", "coordinated"),
    ("diurnal-4c-s000", "ucp", None),
    ("diurnal-4c-s001", "cooperative", None),
]


class _CountingKernel:
    """The loaded kernel, counting the statuses its loops return."""

    def __init__(self):
        self.kernel = load_kernel()
        self.statuses = Counter()

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def repro_run_span(self, ctx):
        status = self.kernel.repro_run_span(ctx)
        self.statuses["span", status] += 1
        return status

    def repro_warm_sweep(self, ctx):
        status = self.kernel.repro_warm_sweep(ctx)
        self.statuses["warm", status] += 1
        return status


@pytest.mark.skipif(not _COMPILED_AVAILABLE, reason="no compiled engine")
@pytest.mark.parametrize("case", EVBUF_BAILS, ids=_case_id)
def test_event_buffer_bails_resume_bit_for_bit(case, references, monkeypatch):
    expected = references(case, monkeypatch)
    kernel = _CountingKernel()
    monkeypatch.setattr(compiled, "_EVBUF_TRIPLES", 2048)
    monkeypatch.setattr(compiled, "load_kernel", lambda: kernel)
    actual = _run(case, COMPILED, monkeypatch)
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, "\n  ".join(mismatches[:20])
    # Guard the guard: the bails fired, on the paths each case covers.
    assert kernel.statuses["span", ST_EVBUF_FULL]
    name, policy, governor = case
    if policy == "ucp":
        assert expected["policy_stats"]["transition_durations"]
    else:
        assert sum(expected["policy_stats"]["takeover_events"].values())
    if name == "diurnal-4c-s001":  # the late-arrival case
        assert kernel.statuses["warm", ST_EVBUF_FULL]


#: corpus cells whose restricted probes leave stale duplicate copies of
#: a tag in the LLC (a valid way whose ``mapped`` entry is not its tag)
DUPLICATE_COPIES = [
    ("diurnal-2c-s004", "fair_share"),
    ("sparse-4c-s004", "cooperative"),
]


def _run_keeping_llc(name, policy, engine):
    """One corpus cell on ``engine``; its serialized result and the
    simulator's LLC."""
    entry = corpus_scenario(name)
    config = corpus_config(entry.n_cores)
    runner = ExperimentRunner()
    sim = CMPSimulator.for_scenario(
        config,
        entry.scenario,
        policy,
        lambda benchmark: runner.trace_for(benchmark, config),
        collect_timeline=True,
    )
    return run_result_to_dict(sim.run(engine)), sim.cache


@pytest.mark.skipif(not _COMPILED_AVAILABLE, reason="no compiled engine")
@pytest.mark.parametrize("name,policy", DUPLICATE_COPIES)
def test_stale_duplicates_agree_across_engines(name, policy):
    expected, mine = _run_keeping_llc(name, policy, PYTHON)
    actual, theirs = _run_keeping_llc(name, policy, COMPILED)
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, "\n  ".join(mismatches[:20])
    for column in ("tags", "mapped", "stamp", "owner", "dirty"):
        assert getattr(mine, column) == getattr(theirs, column), column
    stale = sum(
        1 for tag, mapped in zip(mine.tags, mine.mapped)
        if tag != -1 and mapped != tag
    )
    # Guard the guard: the run really left stale copies behind.
    assert stale, f"{name}/{policy}: no stale duplicate copy at run end"
