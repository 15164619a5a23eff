"""One process of the benchmark: a measured run or a helper step.

``run.py`` starts this script once per step and reads the JSON report
it writes to ``--report``.  Modes:

* ``build``   compile the C kernel into the kernel cache and byte-compile
  the sources, so no measured process pays for either;
* ``prepare`` write a workload's generated inputs (Experiment specs)
  for a seed; the measured processes receive only these;
* ``run``     one iteration of an in-process workload (grid-cold,
  scenario-dvfs): set up, run every spec serially, print tables;
* ``setup``   set up exactly as ``run`` does, then exit;
* ``cli``     one ``repro`` command line, with the workload seed bound
  into the CLI's system configuration;
* ``reference`` a fixed process that imports nothing of the program:
  start-up, the numpy import and a slice of interpreter work.  Run
  next to the workload's processes, its time tracks how fast the
  shared host runs processes (``timing.process_scale``);
* ``verify``  outside any timed region: digest every stored result,
  re-run a fixed sample on the ``python`` engine, and apply the
  differential invariant checks to scenario results.

Times are ``time.monotonic()`` instants, comparable with the parent's.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import suite  # noqa: E402
from timing import REFERENCE_PROBES, probe  # noqa: E402
from layers import TARGETS, record_kernel_spans  # noqa: E402
from spans import Instrumentation, SpanRecorder  # noqa: E402


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def digest(payload: dict) -> str:
    """Digest of one serialized result (host-only diagnostics dropped)."""
    body = {k: v for k, v in payload.items() if k != "diagnostics"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def result_payload(result) -> dict:
    from repro.orchestration import serialize
    from repro.sim.runner import AloneResult

    if isinstance(result, AloneResult):
        return serialize.alone_result_to_dict(result)
    return serialize.run_result_to_dict(result)


def load_specs(path: str) -> list:
    from repro.experiment import Experiment

    documents = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Experiment.from_dict(document) for document in documents]


def expected_tasks(specs: list) -> list:
    """Every task a spec list runs, alone dependencies first, once each."""
    tasks: dict = {}
    for spec in specs:
        for dependency in spec.alone_dependencies():
            tasks.setdefault(dependency.task_key(), dependency)
    for spec in specs:
        tasks.setdefault(spec.task_key(), spec)
    return list(tasks.values())


class TableClock:
    """stdout stand-in that marks when the first table line is written."""

    def __init__(self, stream, recorder: SpanRecorder) -> None:
        self._stream = stream
        self._recorder = recorder

    def write(self, text: str) -> int:
        if "===" in text:
            self._recorder.mark("first_table")
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


class Measured:
    """Instrumentation for a measured process (untraced or traced)."""

    def __init__(self, trace: bool, dump_dir: str) -> None:
        self.recorder = SpanRecorder()
        if trace:
            from multiprocessing import util

            from repro.obs.metrics import enable_metrics

            enable_metrics()
            util.register_after_fork(self, Measured._forked)
        self.instrumentation = Instrumentation(
            self.recorder,
            TARGETS,
            spans=trace,
            dump_dir=dump_dir,
            on_dump=record_kernel_spans if trace else None,
        )
        self.instrumentation.install()
        sys.stdout = TableClock(sys.stdout, self.recorder)

    def _forked(self) -> None:
        """A pool worker starts with empty kernel-span histograms."""
        from repro.obs.metrics import reset_metrics

        reset_metrics()

    def finish(self, report: dict) -> None:
        sys.stdout.flush()
        sys.stdout = sys.__stdout__
        self.instrumentation.dump()
        self.instrumentation.uninstall()
        leftovers = self.instrumentation.leftover_wrappers()
        if leftovers:
            report["errors"].append(f"wrappers left installed: {leftovers}")


def write_report(path: str, report: dict) -> None:
    report["pid"] = os.getpid()
    report["t_start"] = T_START
    report.setdefault("t_end", time.monotonic())
    Path(path).write_text(json.dumps(report), encoding="utf-8")


# ----------------------------------------------------------------------
# build / prepare
# ----------------------------------------------------------------------
def cmd_build(options) -> dict:
    import compileall

    import numpy

    from repro.engine import resolve_engine
    from repro.engine.build import kernel_path, load_kernel

    load_kernel()
    compileall.compile_dir(options.src, quiet=1)
    kernel = kernel_path()
    return {
        "errors": [],
        "kernel": kernel.name,
        "kernel_sha256": hashlib.sha256(kernel.read_bytes()).hexdigest()[:16],
        "engine": resolve_engine(None),
        "numpy": numpy.__version__,
    }


def grid_specs(seed: int, cores: int) -> list:
    import dataclasses

    from repro.experiment import Experiment
    from repro.sim.config import scaled_four_core, scaled_two_core

    factory = scaled_two_core if cores == 2 else scaled_four_core
    config = dataclasses.replace(
        factory(refs_per_core=suite.GRID_REFS[cores]), seed=seed
    )
    return Experiment.grid(config)


def scenario_specs(seed: int) -> list:
    """Every committed corpus schedule (``generate_scenario`` at pinned
    seeds: 5 shapes x {2, 4} cores x 5) under {cooperative, ucp} x {no
    governor, coordinated}, on the corpus machine with the workload
    seed's traces; 2-core schedules first."""
    import dataclasses

    from repro.dvfs.governors import GovernorSpec
    from repro.experiment import Experiment
    from repro.scenarios.corpus import load_corpus
    from repro.scenarios.generate import corpus_config

    corpus = load_corpus()
    specs = []
    for entry in sorted(corpus.values(), key=lambda e: (e.n_cores, e.name)):
        config = dataclasses.replace(corpus_config(entry.n_cores), seed=seed)
        for policy, governor in itertools.product(
            ("cooperative", "ucp"), (None, GovernorSpec("coordinated"))
        ):
            specs.append(Experiment.for_scenario(
                entry.scenario, system=config, policy=policy, governor=governor
            ))
    return specs


def cmd_prepare(options) -> dict:
    if options.workload == "scenario-dvfs":
        specs = scenario_specs(options.seed)
    else:
        specs = grid_specs(options.seed, 2) + grid_specs(options.seed, 4)
    documents = [spec.to_dict() for spec in specs]
    Path(options.out).write_text(json.dumps(documents), encoding="utf-8")
    return {"errors": [], "specs": len(documents)}


# ----------------------------------------------------------------------
# run / setup: the in-process workloads
# ----------------------------------------------------------------------
def set_up(options):
    """Everything before the first task: kernel load and store open
    (imports happened before the instrumentation was installed)."""
    from repro.engine.build import load_kernel
    from repro.orchestration.store import ResultStore
    from repro.sim.runner import ExperimentRunner

    load_kernel()
    store = options.store or os.path.join(options.dump_dir, "store")
    return ExperimentRunner(store=ResultStore(store))


class TaskLog:
    """One in-process iteration: timed tasks, calibration probes, tables."""

    def __init__(self, runner) -> None:
        self.runner = runner
        #: (spec, seconds, result) per task, in run order
        self.timed: list = []
        #: one calibration probe before every task
        self.probes: list = []
        #: probes taken before the first table was printed
        self.probes_before_table: int | None = None

    def run(self, spec):
        self.probes.append(probe())
        started = time.perf_counter()
        result = self.runner.run(spec)
        self.timed.append((spec, time.perf_counter() - started, result))
        return result

    def table(self, title: str, header: list, rows: list) -> None:
        if self.probes_before_table is None:
            self.probes_before_table = len(self.probes)
        print(f"\n=== {title} ===")
        print(f"{'':<32}" + "".join(f"{column:>16}" for column in header))
        for label, values in rows:
            print(f"{label:<32}" + "".join(f"{value:>16.4f}" for value in values))


def run_grid(log: TaskLog, specs: list) -> None:
    """Serial (group x scheme) grid per geometry, alone runs first, then
    the normalised weighted-speedup table of that geometry."""
    by_cores: dict = {}
    for spec in specs:
        by_cores.setdefault(spec.system.n_cores, []).append(spec)
    for cores, grid in by_cores.items():
        results: dict = {}
        for task in expected_tasks(grid):
            result = log.run(task)
            if task.kind == "group":
                results.setdefault(task.workload.name, {})[task.policy_name] = result
        table = log.runner.normalized_weighted_speedup(
            results, grid[0].system, "fair_share"
        )
        policies = list(next(iter(table.values())))
        log.table(
            f"{cores}-core weighted speedup (normalised to fair_share)",
            policies,
            [(group, [row[p] for p in policies]) for group, row in table.items()],
        )


def run_scenarios(log: TaskLog, specs: list) -> None:
    """Every scenario spec serially; per core count, a table of mean
    energies and powered ways per (shape, scheme, governor)."""
    from repro.bench.differential import governor_label

    by_cores: dict = {}
    for spec in specs:
        by_cores.setdefault(spec.system.n_cores, []).append(spec)
    for cores, group in by_cores.items():
        cells: dict = {}
        for spec in group:
            result = log.run(spec)
            shape = spec.scenario.name.split("-", 1)[0]
            label = f"{shape}/{spec.policy_name}/{governor_label(spec.governor)}"
            cells.setdefault(label, []).append((
                result.dynamic_energy_nj, result.static_energy_nj,
                result.total_energy_nj, result.average_active_ways,
            ))
        log.table(
            f"{cores}-core generated scenarios (means over schedules)",
            ["dynamic_nj", "static_nj", "total_nj", "ways"],
            [
                (label, [sum(column) / len(rows) for column in zip(*rows)])
                for label, rows in cells.items()
            ],
        )


def cmd_run(options) -> dict:
    import repro  # noqa: F401
    import repro.bench.differential  # noqa: F401
    import repro.engine.compiled  # noqa: F401
    from repro.engine import resolve_engine

    t_imported = time.monotonic()
    measured = Measured(options.trace, options.dump_dir)
    report: dict = {"errors": [], "t_imported": t_imported}
    runner = set_up(options)
    report["t_setup"] = time.monotonic()
    if options.mode == "run":
        specs = load_specs(options.inputs)
        log = TaskLog(runner)
        workload = run_grid if options.workload == "grid-cold" else run_scenarios
        workload(log, specs)
        report["t_end"] = time.monotonic()
        report["probes"] = log.probes
        report["probes_before_table"] = log.probes_before_table
        report["tasks"] = [seconds for _, seconds, _ in log.timed]
        report["digests"] = {
            spec.task_key(): digest(result_payload(result))
            for spec, _, result in log.timed
        }
    report["engine"] = resolve_engine(None)
    measured.finish(report)
    return report


# ----------------------------------------------------------------------
# cli: one repro command line
# ----------------------------------------------------------------------
def bind_seed(cli_module, seed: int) -> None:
    """Give the CLI's system-config factories the workload seed (the
    CLI has no seed option; this is the only behaviour bound)."""
    import dataclasses

    for name in ("scaled_two_core", "scaled_four_core"):
        factory = getattr(cli_module, name)

        def seeded(*args, _factory=factory, **kwargs):
            return dataclasses.replace(_factory(*args, **kwargs), seed=seed)

        setattr(cli_module, name, seeded)


def cmd_cli(options) -> dict:
    import repro  # noqa: F401
    import repro.engine.compiled  # noqa: F401
    import repro.orchestration.cli as cli

    t_imported = time.monotonic()
    originals = {n: getattr(cli, n) for n in ("scaled_two_core", "scaled_four_core")}
    bind_seed(cli, options.seed)
    measured = Measured(options.trace, options.dump_dir)
    report: dict = {"errors": [], "t_imported": t_imported}
    try:
        report["exit_code"] = cli.main(options.argv)
    except SystemExit as stop:
        report["exit_code"] = stop.code if isinstance(stop.code, int) else 1
    report["t_end"] = time.monotonic()
    for name, factory in originals.items():
        setattr(cli, name, factory)
    measured.finish(report)
    return report


def cmd_reference(options) -> dict:
    import numpy  # noqa: F401

    for _ in range(REFERENCE_PROBES):
        probe()
    return {"errors": []}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def verify_sample(specs: list) -> list:
    """The fixed re-run sample: for each core count and governor, the
    first cooperative spec and its first alone run."""
    sample = []
    seen: set = set()
    for spec in specs:
        family = (spec.system.n_cores, spec.governor is None)
        if spec.policy_name != "cooperative" or family in seen:
            continue
        seen.add(family)
        sample.extend(spec.alone_dependencies()[:1])
        sample.append(spec)
    return sample


def cmd_verify(options) -> dict:
    from repro.bench.differential import check_run
    from repro.orchestration.serialize import run_result_from_dict
    from repro.orchestration.store import ResultStore
    from repro.sim.runner import ExperimentRunner

    specs = load_specs(options.inputs)
    store = ResultStore(options.store)
    errors: list = []
    digests: dict = {}
    for task in expected_tasks(specs):
        payload = store.get(task.task_key())
        if payload is None:
            errors.append(f"{task.label}: no stored result")
            continue
        digests[task.task_key()] = digest(payload)
        if task.kind == "scenario":
            for violation in check_run(task, run_result_from_dict(payload)):
                errors.append(f"{task.label}: invariant {violation.to_dict()}")
    if options.reference:
        pinned = json.loads(Path(options.reference).read_text(encoding="utf-8"))
        for key, value in digests.items():
            if pinned["results"].get(key) != value:
                errors.append(f"{key}: digest differs from digests.json")
    engine = os.environ.get("REPRO_ENGINE")
    reference = ExperimentRunner()
    sample = verify_sample(specs)
    for task in sample:
        rerun = digest(result_payload(reference.run(task)))
        if digests.get(task.task_key()) != rerun:
            errors.append(f"{task.label}: {engine} engine result differs")
    return {"errors": errors, "digests": digests, "rechecked": len(sample)}


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=(
        "build", "prepare", "run", "setup", "cli", "reference", "verify",
    ))
    parser.add_argument("--report", required=True)
    parser.add_argument("--workload", choices=tuple(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--store")
    parser.add_argument("--src")
    parser.add_argument("--reference")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-dir")
    args = sys.argv[1:]
    split = args.index("--") if "--" in args else len(args)
    options = parser.parse_args(args[:split])
    #: the repro command line of ``cli`` mode (everything after ``--``)
    options.argv = args[split + 1:]
    options.trace = bool(options.trace)
    handlers = {
        "build": cmd_build,
        "prepare": cmd_prepare,
        "run": cmd_run,
        "setup": cmd_run,
        "cli": cmd_cli,
        "reference": cmd_reference,
        "verify": cmd_verify,
    }
    report = handlers[options.mode](options)
    write_report(options.report, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
