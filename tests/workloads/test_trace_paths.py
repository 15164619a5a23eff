"""Every trace-fill path produces byte-identical traces.

``generate_trace`` has up to four ways to build the same columns: the
compiled kernel's sequential loops feeding the numpy column math, numpy
alone, the kernel's category picks feeding the scalar fill, and the
pure scalar fill (no numpy, no kernel).  The golden fixtures only cover
whichever path the machine happens to take; this suite pins the paths
against each other on every profile.
"""

import pytest

from repro.engine import compiled_available
from repro.sim.config import scaled_four_core, scaled_two_core
from repro.workloads import trace as trace_module
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.trace import generate_trace

#: (kernel loops, numpy) per path; the scalar path is the reference
PATHS = {"scalar": (False, False)}
if trace_module._np is not None:
    PATHS["numpy"] = (False, True)
if compiled_available():
    PATHS["kernel-scalar"] = (True, False)
    if trace_module._np is not None:
        PATHS["kernel-numpy"] = (True, True)

GEOMETRIES = {"2core": scaled_two_core(), "4core": scaled_four_core()}
SEEDS = (1, 2012)


def _n_refs(profile) -> int:
    """Enough references to wrap a phase profile's whole schedule (so
    the phase cursor cycles back to the first phase), a few thousand
    otherwise."""
    if profile.phases:
        return sum(phase.duration_refs for phase in profile.phases) + 2_000
    return 4_000


def _generate(path, profile, config, seed, monkeypatch):
    use_kernel, use_numpy = PATHS[path]
    with monkeypatch.context() as patch:
        if not use_kernel:
            patch.setattr(trace_module, "_loops_kernel", lambda: None)
        if not use_numpy:
            patch.setattr(trace_module, "_np", None)
        trace = generate_trace(
            profile, config.l2, config.l1.total_lines, _n_refs(profile), seed
        )
    return tuple(
        column.tobytes()
        for column in (
            trace.gaps, trace.line_addresses, trace.writes, trace.warm_lines
        )
    )


@pytest.mark.skipif(len(PATHS) < 2, reason="only the scalar path runs here")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("name", sorted(BENCHMARK_PROFILES))
def test_every_path_is_byte_identical(name, geometry, seed, monkeypatch):
    profile = BENCHMARK_PROFILES[name]
    config = GEOMETRIES[geometry]
    expected = _generate("scalar", profile, config, seed, monkeypatch)
    for path in PATHS:
        if path != "scalar":
            actual = _generate(path, profile, config, seed, monkeypatch)
            assert actual == expected, f"{path} diverged from the scalar fill"


class _CountingKernel:
    """The real kernel, counting ``repro_resolve_draws`` calls."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.resolve_calls = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def repro_resolve_draws(self, *args):
        self.resolve_calls += 1
        return self._lib.repro_resolve_draws(*args)


@pytest.mark.skipif("kernel-numpy" not in PATHS, reason="needs kernel and numpy")
def test_kernel_resumes_when_the_word_stream_grows(monkeypatch):
    """The hot region's draw modulus (32 lines on the 2-core geometry)
    accepts half of all attempts, so a hot-heavy trace's draws outrun
    the initial 624-word slack: the kernel must stop, let the stream
    grow, and resume mid-resolution — several times over."""
    from repro.engine.build import load_kernel

    profile = BENCHMARK_PROFILES["povray"]
    config = GEOMETRIES["2core"]
    expected = _generate("numpy", profile, config, 5, monkeypatch)
    kernel = _CountingKernel(load_kernel())
    monkeypatch.setattr(trace_module, "_loops_kernel", lambda: kernel)
    actual = _generate("kernel-numpy", profile, config, 5, monkeypatch)
    assert kernel.resolve_calls >= 3, "the word stream never grew"
    assert actual == expected


def test_kernel_load_failure_falls_back(monkeypatch, tmp_path):
    """A kernel that cannot build leaves generate_trace on the Python
    paths, returning the identical trace without raising."""
    import repro.engine as engine
    from repro.engine import build

    profile = BENCHMARK_PROFILES["soplex"]
    config = GEOMETRIES["2core"]
    expected = _generate("scalar", profile, config, 3, monkeypatch)

    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(engine, "_compiled_available", None)
    monkeypatch.setattr(build, "_kernel", None)
    monkeypatch.setattr(build, "_kernel_error", None)
    trace = generate_trace(
        profile, config.l2, config.l1.total_lines, _n_refs(profile), 3
    )
    assert not engine.compiled_available()
    assert (
        trace.gaps.tobytes(), trace.line_addresses.tobytes(),
        trace.writes.tobytes(), trace.warm_lines.tobytes(),
    ) == expected
