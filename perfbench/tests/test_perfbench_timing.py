"""Percentile selection and spread of the benchmark's statistics."""

import types

import pytest

import timing


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert timing.percentile(values, 50) == 3
    assert timing.percentile(values, 90) == 5
    assert timing.percentile(values, 20) == 1
    assert timing.percentile(values, 100) == 5


def test_percentile_returns_a_measured_sample():
    values = [0.1 * i for i in range(1, 101)]
    assert timing.percentile(values, 90) == values[89]
    assert timing.percentile(values, 50) == values[49]
    assert timing.percentile([7.5], 90) == 7.5


@pytest.mark.parametrize("p", [0, -1, 101])
def test_percentile_rejects_bad_ranks(p):
    with pytest.raises(ValueError):
        timing.percentile([1, 2, 3], p)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        timing.percentile([], 50)


def test_reference_scale_without_probes_is_one():
    assert timing.reference_scale([]) == 1.0
    slow = [2 * timing.PROBE_REFERENCE_S] * 3
    assert timing.reference_scale(slow) == pytest.approx(0.5)


def test_process_scale_follows_the_reference_processes():
    assert timing.process_scale([]) == 1.0
    fast = [0.5 * timing.PROCESS_REFERENCE_S, 0.5 * timing.PROCESS_REFERENCE_S, 9.0]
    assert timing.process_scale(fast) == pytest.approx(2.0)


def test_cli_commands_follow_the_reference_processes_around_them():
    import run

    ref = timing.PROCESS_REFERENCE_S
    procs = [types.SimpleNamespace(wall=1.0, probes=[]) for _ in range(2)]
    iteration = run.Iteration(
        procs=procs, traced=False, tasks=[1.0, 1.0], refs=0.0, setups=[], load=(0, 0),
        references=[ref, 3 * ref, ref],
    )
    assert iteration.scaled_tasks() == pytest.approx([0.5, 0.5])
    assert iteration.first_table_scale == pytest.approx(0.5)
    assert iteration.scale == pytest.approx(1.0)
    assert iteration.wall_scale == pytest.approx(0.5)


def test_in_process_wall_is_scaled_task_by_task():
    import run

    fast, slow = timing.PROBE_REFERENCE_S / 2, timing.PROBE_REFERENCE_S * 2
    probes = [fast] * 20 + [slow] * 20
    proc = types.SimpleNamespace(wall=41.0, probes=probes)
    iteration = run.Iteration(
        procs=[proc], traced=False, tasks=[1.0] * 40, refs=0.0, setups=[], load=(0, 0),
    )
    scaled = iteration.scaled_tasks()
    assert scaled[0] == pytest.approx(2.0) and scaled[-1] == pytest.approx(0.5)
    # 40 task seconds scaled one by one, the second outside them by the median
    assert iteration.wall * iteration.wall_scale == pytest.approx(
        sum(scaled) + 1.0 * iteration.scale
    )
