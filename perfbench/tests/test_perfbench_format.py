"""BENCHMARK.json matches the suite and the limits of its format."""

import json
from pathlib import Path

import suite

ROOT = Path(__file__).resolve().parents[2]


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_suite_document():
    assert load() == suite.benchmark_document()


def test_names_and_units_follow_the_grammar():
    document = load()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    for name in names:
        assert suite.NAME_RE.fullmatch(name), name
    for section in ("end_to_end", "per_layer"):
        seen = [m["name"] for m in document[section]]
        assert len(seen) == len(set(seen)), section
        for metric in document[section]:
            assert suite.UNIT_RE.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")


def test_format_limits():
    document = load()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(document["paths"]) <= 16
    assert all((ROOT / path).is_dir() for path in document["paths"])
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} for w in document["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]
    assert all(set(m) == {"name", "unit", "better"} for m in document["per_layer"])
    assert len(json.dumps(document)) <= 64 * 1024


def test_workloads_are_the_runner_workloads():
    import run

    assert list(run.WORKLOADS) == list(suite.WORKLOADS)
