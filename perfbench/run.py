"""End-to-end benchmark of the reproduction: one workload, one seed.

    python3 perfbench/run.py --workload grid-cold --seed 2012 --seconds 20 --trace 0

Run from the root of a source checkout.  The first run builds the C
kernel into ``.bench_build/`` and byte-compiles ``src/``; every later
step starts fresh ``python3`` processes (``child.py``) and measures
them from outside, so interpreter start-up and imports count.  This
process never imports the program.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced iterations and prints every per-layer metric,
with the tracing overhead.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
result that disagrees with the pinned digests (default seed), between
iterations, with the ``python`` engine or with the differential
invariants makes the run incorrect and the exit code 1.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import suite  # noqa: E402
import timing  # noqa: E402
from spans import merge  # noqa: E402

#: a run stops starting iterations after this many seconds
BUDGET_S = 150.0
#: and every child is killed at this point, so the run ends within 180 s
HARD_LIMIT_S = 170.0
#: set-up samples an in-process workload collects per run
SETUP_SAMPLES = 7

DIGESTS = HERE / "digests.json"


class BenchError(RuntimeError):
    """A step failed outright (crash, timeout, bad exit code)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
@dataclass
class Proc:
    """One finished child process, measured from this process."""

    directory: Path
    spawned: float
    exited: float
    cpu_s: float
    rss_kb: int
    report: dict
    dumps: dict = field(default_factory=dict)

    @property
    def probes(self) -> list:
        """The in-process child's calibration probes, one before each task."""
        return self.report.get("probes", [])

    @property
    def wall(self) -> float:
        return self.exited - self.spawned

    @property
    def main_dump(self) -> dict:
        return self.dumps[self.report["pid"]]

    @property
    def merged(self) -> dict:
        return merge(list(self.dumps.values()))

    def mark(self, name: str) -> float | None:
        at = self.merged["marks"].get(name)
        return None if at is None else at - self.spawned

    @property
    def stdout(self) -> str:
        return (self.directory / "stdout.txt").read_text(encoding="utf-8")


class Session:
    """Runs child steps inside a private work directory of the checkout."""

    def __init__(self, work: Path, started: float) -> None:
        self.work = work
        self.started = started
        self.steps = 0
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_KERNEL_CACHE=str(ROOT / ".bench_build" / "kernel"),
            TMPDIR=str(tmp),
            # The program makes no BLAS calls, but numpy's OpenBLAS starts
            # a thread per CPU at import, whose CPU time follows the host.
            OPENBLAS_NUM_THREADS="1",
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str, *args: str, argv: tuple = (), env: dict | None = None) -> Proc:
        self.steps += 1
        directory = self.work / f"{self.steps:03d}-{mode}"
        directory.mkdir()
        report = directory / "report.json"
        command = [
            sys.executable, str(HERE / "child.py"), mode,
            "--report", str(report), "--dump-dir", str(directory), *args,
        ]
        if argv:
            command += ["--", *argv]
        remaining = HARD_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError(f"time budget exhausted before {mode}")
        with open(directory / "stdout.txt", "w") as out, open(directory / "stderr.txt", "w") as err:
            spawned = time.monotonic()
            process = subprocess.Popen(
                command, cwd=ROOT, env={**self.env, **(env or {})},
                stdout=out, stderr=err, start_new_session=True,
            )
            watchdog = threading.Timer(remaining, _kill_group, (process.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
                exited = time.monotonic()
            finally:
                watchdog.cancel()
                _kill_group(process.pid)  # stragglers of the session, if any
            process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0 or not report.exists():
            tail = (directory / "stderr.txt").read_text(encoding="utf-8")[-2000:]
            raise BenchError(
                f"{mode} step exited with {process.returncode}:\n{tail}"
            )
        dumps = {}
        for path in directory.glob("spans-*.json"):
            dumps[int(path.stem.split("-")[1])] = json.loads(path.read_text())
        report = json.loads(report.read_text())
        return Proc(
            directory=directory,
            spawned=spawned,
            exited=exited,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_kb=usage.ru_maxrss,
            report=report,
            dumps=dumps,
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
@dataclass
class Iteration:
    """One timed repetition of a workload: one or more processes in a row.

    Times are as measured; :attr:`scale` converts them to reference
    speed (see ``timing.reference_scale`` and ``timing.process_scale``).
    """

    procs: list
    traced: bool
    tasks: list
    refs: float
    #: ``(seconds, scale)`` per set-up sample
    setups: list
    load: tuple
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: wall times of the reference processes run between resume-warm's
    #: commands (in-process workloads probe instead)
    references: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def scale(self) -> float:
        if self.references:
            return timing.process_scale(self.references)
        return timing.reference_scale([x for p in self.procs for x in p.probes])

    def task_scales(self) -> list | None:
        """Per-task reference-speed factors, where tasks carry their own
        calibration: in-process tasks each follow their own probe, so
        each is scaled by the probes around it; resume-warm's commands
        each lie between two reference processes, and are scaled by
        those two.  None where tasks share the iteration's factor."""
        if len(self.references) == len(self.tasks) + 1:
            return [
                timing.process_scale(self.references[i:i + 2])
                for i in range(len(self.tasks))
            ]
        probes = [x for p in self.procs for x in p.probes]
        if not probes or len(probes) != len(self.tasks):
            return None
        w = timing.LOCAL_PROBES
        return [
            timing.reference_scale(probes[max(0, i - w): i + w + 1])
            for i in range(len(self.tasks))
        ]

    def scaled_tasks(self) -> list:
        """Task times at reference speed."""
        scales = self.task_scales() or [self.scale] * len(self.tasks)
        return [t * k for t, k in zip(self.tasks, scales)]

    @property
    def wall_scale(self) -> float:
        """Factor converting the iteration's wall and CPU time to
        reference speed: the time of tasks with their own calibration
        by that, the rest by :attr:`scale`.  Seconds-long iterations
        drift within themselves, so this tracks better than one factor."""
        scales = self.task_scales()
        if scales is None:
            return self.scale
        tasks = sum(self.tasks)
        scaled = sum(t * k for t, k in zip(self.tasks, scales))
        return (scaled + (self.wall - tasks) * self.scale) / self.wall

    @property
    def cpu(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def first_table(self) -> float:
        first = self.procs[0]
        at = first.mark("first_table")
        if at is None:
            raise BenchError(f"{first.directory.name}: no table was printed")
        return at

    @property
    def first_table_scale(self) -> float:
        """Reference-speed factor of the probes taken before the first
        table, or of the reference processes around the first command."""
        if len(self.references) == len(self.tasks) + 1:
            return timing.process_scale(self.references[:2])
        first = self.procs[0]
        count = first.report.get("probes_before_table")
        return timing.reference_scale(first.probes[:count]) if count else self.scale

    @property
    def rss_mb(self) -> float:
        return max(p.rss_kb for p in self.procs) / 1024

    def layer_metrics(self) -> dict:
        merged = merge([d for p in self.procs for d in p.dumps.values()])
        startup = sum(p.report["t_start"] - p.spawned for p in self.procs)
        imports = sum(p.report["t_imported"] - p.report["t_start"] for p in self.procs)
        metrics = layers.per_layer(merged, import_s=imports, startup_s=startup)
        attributed = startup + imports + sum(p.main_dump["root_s"] for p in self.procs)
        metrics["trace.wall_s"] = self.wall
        metrics["trace.unattributed_s"] = self.wall - attributed
        return metrics

    def accounting_errors(self) -> list:
        """Self times must add up: per process they equal the time of
        the outermost spans, and together with start-up and import
        they never exceed the iteration's wall time."""
        errors = []
        for proc in self.procs:
            for pid, dump in proc.dumps.items():
                total = sum(dump["self_s"].values())
                if abs(total - dump["root_s"]) > 1e-6 * (1 + sum(dump["calls"].values())):
                    errors.append(f"pid {pid}: self times {total} != spans {dump['root_s']}")
        if self.traced and self.layer_metrics()["trace.unattributed_s"] < -1e-3:
            errors.append("layer self times exceed the traced wall time")
        return errors


class Workload:
    """Inputs, iterations and verification of one named workload."""

    #: the store holding the results ``verify`` checks
    last_store: Path

    def __init__(self, name: str, seed: int, session: Session) -> None:
        self.name = name
        self.seed = seed
        self.session = session
        self.inputs = session.work / "inputs.json"

    def prepare(self) -> None:
        self.session.child(
            "prepare", "--workload", self.name, "--seed", str(self.seed),
            "--out", str(self.inputs),
        )

    def iterate(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def extra_setups(self, count: int) -> list:
        return []

    def reference(self) -> float:
        """Spawn-to-exit seconds of one reference process."""
        return self.session.child("reference").wall

    def cli(self, argv: list, traced: bool) -> Proc:
        proc = self.session.child(
            "cli", "--seed", str(self.seed), "--trace", str(int(traced)),
            argv=tuple(argv),
        )
        if proc.report["exit_code"] != 0:
            raise BenchError(f"repro {' '.join(argv)} exited with {proc.report['exit_code']}")
        return proc


class InProcess(Workload):
    """grid-cold and scenario-dvfs: every spec serially in one process."""

    def iterate(self, traced: bool) -> Iteration:
        before = os.getloadavg()[0]
        reference = self.reference()
        proc = self.session.child(
            "run", "--workload", self.name, "--inputs", str(self.inputs),
            "--trace", str(int(traced)),
        )
        report = proc.report
        self.last_store = proc.directory / "store"
        return Iteration(
            procs=[proc],
            traced=traced,
            tasks=report["tasks"],
            refs=proc.merged["counts"].get("sim.refs", 0),
            setups=[(report["t_setup"] - proc.spawned, timing.process_scale([reference]))],
            load=(before, os.getloadavg()[0]),
            digests=report["digests"],
            errors=list(report["errors"]),
        )

    def extra_setups(self, count: int) -> list:
        """``count`` more ``(set-up seconds, scale)`` samples.  Set-up is
        start-up and imports, so a reference process scales it, not the
        interpreter probes."""
        samples = []
        for _ in range(count):
            scale = timing.process_scale([self.reference()])
            proc = self.session.child("setup", "--workload", self.name)
            samples.append((proc.report["t_setup"] - proc.spawned, scale))
        return samples


class ResumeWarm(Workload):
    """Fresh sweep/report processes over a store filled during set-up."""

    #: the timed command lines, in order; each delivers one geometry
    COMMANDS = (
        ("sweep", 2, ["--metric", "all"]),
        ("sweep", 4, ["--metric", "all"]),
        ("report", 2, []),
        ("report", 4, []),
    )

    def prepare(self) -> None:
        super().prepare()
        self.filled = self.last_store = self.session.work / "store"
        #: simulated references behind each geometry's stored results
        self.refs_by_cores = {}
        for cores in (2, 4):
            proc = self.cli(
                ["sweep", "--cores", str(cores), "--jobs", str(suite.POOL_JOBS),
                 "--quiet", "--store", str(self.filled)],
                traced=False,
            )
            self.refs_by_cores[cores] = proc.merged["counts"].get("sim.refs", 0)
        self.outputs = None

    def iterate(self, traced: bool) -> Iteration:
        before = os.getloadavg()[0]
        procs, errors, outputs, references = [], [], [], []
        for command, cores, extra in self.COMMANDS:
            references.append(self.reference())
            proc = self.cli(
                [command, "--cores", str(cores), *extra, "--store", str(self.filled)],
                traced,
            )
            if proc.merged["counts"].get("sim.refs", 0):
                errors.append(f"repro {command} --cores {cores} simulated on a warm store")
            outputs.append(_tables_only(proc.stdout))
            procs.append(proc)
        references.append(self.reference())
        if self.outputs is None:
            self.outputs = outputs
        elif outputs != self.outputs:
            errors.append("printed tables differ between iterations")
        return Iteration(
            procs=procs,
            traced=traced,
            tasks=[p.wall for p in procs],
            refs=sum(self.refs_by_cores[cores] for _, cores, _ in self.COMMANDS),
            setups=[
                (p.mark("store_open"), timing.process_scale(references[i:i + 2]))
                for i, p in enumerate(procs)
            ],
            load=(before, os.getloadavg()[0]),
            errors=errors,
            references=references,
        )


WORKLOADS = {
    "grid-cold": InProcess,
    "scenario-dvfs": InProcess,
    "resume-warm": ResumeWarm,
}


def _tables_only(stdout: str) -> list:
    """The printed lines minus the run summary, which holds a time."""
    return [line for line in stdout.splitlines() if "cached in" not in line]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(iterations: list, setups: list, scaled: bool = True) -> dict:
    """End-to-end metrics of untraced iterations at reference speed
    (``scaled=False``: as measured); ``setups`` holds ``(seconds,
    scale)`` pairs."""

    def k(it: Iteration) -> float:
        return it.wall_scale if scaled else 1.0

    tasks = [
        s for it in iterations for s in (it.scaled_tasks() if scaled else it.tasks)
    ]
    return {
        "wall_s": timing.median([it.wall * k(it) for it in iterations]),
        "cpu_s": timing.median([it.cpu * k(it) for it in iterations]),
        "setup_s": timing.median([s * (f if scaled else 1.0) for s, f in setups]),
        "sim_refs_per_s": timing.median([it.refs / (it.wall * k(it)) for it in iterations]),
        "tasks_per_s": timing.median(
            [len(it.tasks) / (it.wall * k(it)) for it in iterations]
        ),
        "task_ms.p50": timing.percentile(tasks, 50) * 1000,
        "task_ms.p90": timing.percentile(tasks, 90) * 1000,
        "first_table_s": timing.median([
            it.first_table * (it.first_table_scale if scaled else 1.0)
            for it in iterations
        ]),
        "peak_rss_mb": max(it.rss_mb for it in iterations),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer metrics of traced iterations, times at reference speed."""
    timed = {name for name, unit, _ in suite.PER_LAYER if unit in ("s", "ns")}
    rows = []
    for it in traced:
        row = it.layer_metrics()
        rows.append({n: v * it.scale if n in timed else v for n, v in row.items()})
    metrics = {name: timing.median([row[name] for row in rows]) for name in rows[0]}
    metrics["trace.overhead_s"] = (
        timing.median([it.wall * it.scale for it in traced])
        - timing.median([it.wall * it.scale for it in plain])
    )
    return metrics


# ----------------------------------------------------------------------
def measure(workload: Workload, seconds: float, trace: bool) -> list:
    """Iterate while at least half of one more iteration fits into
    ``seconds`` (at least one untraced, and one traced when tracing);
    traced runs alternate."""
    iterations: list = []
    start = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(workload.iterate(traced))
        kinds = {it.traced for it in iterations}
        if trace and len(kinds) < 2:
            continue
        spent = time.monotonic() - start
        # per iteration, with the reference processes run between
        typical = spent / len(iterations)
        if spent + typical / 2 > seconds or workload.session.elapsed() + typical > BUDGET_S:
            return iterations


def run(options) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench_root = ROOT / ".bench_build" / "perfbench"
    bench_root.mkdir(parents=True, exist_ok=True)
    work = bench_root / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    session = Session(work, started)
    try:
        return measure_and_report(options, session)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_and_report(options, session: Session) -> int:
    build = session.child("build", "--src", str(ROOT / "src")).report
    workload = WORKLOADS[options.workload](options.workload, options.seed, session)
    workload.prepare()
    iterations = measure(workload, options.seconds, bool(options.trace))
    plain = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]

    errors = [e for it in iterations for e in it.errors + it.accounting_errors()]
    reference: dict = {}
    for it in iterations:
        for key, value in it.digests.items():
            if reference.setdefault(key, value) != value:
                errors.append(f"{key}: result differs between iterations")
    pin = options.seed == suite.DEFAULT_SEED and not options.write_digests
    verify = session.child(
        "verify", "--inputs", str(workload.inputs),
        "--store", str(workload.last_store),
        *(["--reference", str(DIGESTS)] if pin else []),
        env={"REPRO_ENGINE": "python"},
    ).report
    errors += verify["errors"]
    for key, value in reference.items():
        if verify["digests"].get(key) != value:
            errors.append(f"{key}: stored result differs from the run's")

    attempted = sum(len(it.tasks) for it in iterations)
    failed = min(attempted, len(errors))
    raw = None
    if options.trace:
        metrics = per_layer(plain, traced)
        units = {name: unit for name, unit, _ in suite.PER_LAYER}
    else:
        setups = [sample for it in plain for sample in it.setups]
        setups += workload.extra_setups(max(0, SETUP_SAMPLES - len(setups)))
        metrics = end_to_end(plain, setups)
        raw = end_to_end(plain, setups, scaled=False)
        units = {name: unit for name, unit, _, _ in suite.END_TO_END}

    if options.write_digests and not errors:
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {
            "seed": suite.DEFAULT_SEED, "results": {}}
        pinned["results"].update(verify["digests"])
        pinned["results"] = dict(sorted(pinned["results"].items()))
        DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")

    record = {
        "workload": options.workload,
        "seed": options.seed,
        "trace": options.trace,
        "iterations": len(iterations),
        "traced_iterations": len(traced),
        "tasks": attempted,
        "failed_frac": failed / attempted if attempted else 0.0,
        "raw_end_to_end": raw,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": build["numpy"],
            "kernel": build["kernel"],
            "kernel_sha256": build["kernel_sha256"],
            "engine": build["engine"],
            "pool": "none: every timed process runs serially",
            "load1_before_after": [list(it.load) for it in iterations],
            "speed_scale": [it.wall_scale for it in iterations],
            "iteration_wall_s": [it.wall for it in iterations],
        },
        "errors": errors[:20],
    }
    print(f"perfbench {options.workload} seed={options.seed} trace={options.trace}: "
          f"{len(iterations)} iterations, {attempted} tasks, {failed} failed "
          f"(failed_frac {record['failed_frac']:.4f})")
    for name, value in metrics.items():
        print(f"  {name:<36}{value:>16.6g} {units[name]}")
    for error in errors[:20]:
        print(f"  ERROR {error}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if not errors else 1


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="pin this run's result digests into digests.json (default seed only)",
    )
    options = parser.parse_args(argv)
    if options.write_digests and options.seed != suite.DEFAULT_SEED:
        parser.error(f"--write-digests pins the default seed {suite.DEFAULT_SEED} only")
    return run(options)


if __name__ == "__main__":
    sys.exit(main())
