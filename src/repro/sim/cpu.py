"""Per-core execution state for the trace-driven timing model.

The paper simulates a 4-wide out-of-order core; for LLC-partitioning
studies what matters is how instruction throughput responds to LLC
hit/miss latency, so we use the standard trace-driven proxy: non-
memory instructions retire at the issue width, memory references pay
the hierarchy latency and block (misses are not overlapped — this
exaggerates memory sensitivity uniformly across schemes, preserving
every normalised comparison; see README.md, "Scaling fidelity").

A core whose trace is exhausted wraps around and keeps running — the
paper keeps finished applications executing "to keep contending for
cache resources" — but its performance counters freeze at the target
reference count.

The reference stream is held in ``array``-backed columns (``gaps``,
``addresses``, ``writes``) shared with or derived from the
:class:`~repro.workloads.trace.Trace`, so the simulator's inner loop
indexes flat machine-word arrays instead of lists of boxed objects.
The per-core execution fields (clock, trace position, counters,
window bookkeeping) are likewise columns shared by all cores, which
the compiled kernel mutates in place.
"""

from __future__ import annotations

from array import array

from repro.cache.set_associative import SetAssociativeCache
from repro.workloads.trace import Trace

#: address-space offset between cores (line-address bits)
CORE_ADDRESS_SPACE_BITS = 40

#: the execution fields the compiled kernel reads and writes; each is
#: one n-entry ``array('q')`` column of :class:`CoreColumns`
COLUMN_FIELDS = (
    "active",
    "time",
    "position",
    "length",
    "instructions",
    "refs_done",
    "window_open",
    "window_closed",
    "instr_base",
    "cycle_base",
    "frozen_instructions",
    "frozen_cycles",
)


class CoreColumns:
    """Every core's execution fields, one ``array('q')`` per field.

    The simulator allocates one instance per run and never rebinds a
    column, so the compiled kernel points at them for the whole run and
    both engines mutate the same memory.
    """

    __slots__ = COLUMN_FIELDS

    def __init__(self, n_cores: int) -> None:
        for name in COLUMN_FIELDS:
            setattr(self, name, array("q", bytes(8 * n_cores)))


class _Column:
    """A :class:`CoreState` attribute that views its core's entry of
    the shared column of the same name."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, core: "CoreState", owner: type | None = None) -> int:
        return getattr(core.columns, self.name)[core.core_id]

    def __set__(self, core: "CoreState", value: int) -> None:
        getattr(core.columns, self.name)[core.core_id] = value


class _Flag(_Column):
    """A 0/1 column entry that reads as ``bool``."""

    def __get__(self, core: "CoreState", owner: type | None = None) -> bool:
        return bool(getattr(core.columns, self.name)[core.core_id])


class CoreState:
    """Mutable execution state of one simulated core.

    The fields the kernel touches live in the simulator's
    :class:`CoreColumns` (fresh columns read as zero); the attributes
    below are views onto this core's entry.
    """

    __slots__ = (
        "core_id",
        "columns",
        "benchmark",
        "gaps",
        "addresses",
        "writes",
        "warm_lines",
        "departed",
        "l1",
    )

    #: whether the core is currently executing (scenario engine)
    active = _Flag()
    time = _Column()
    position = _Column()
    length = _Column()
    instructions = _Column()
    refs_done = _Column()
    #: whether the measurement window has opened (end of this core's
    #: warmup) — per core so late arrivals measure too
    window_open = _Flag()
    window_closed = _Flag()
    instr_base = _Column()
    cycle_base = _Column()
    frozen_instructions = _Column()
    frozen_cycles = _Column()

    def __init__(
        self, core_id: int, trace: Trace | None, columns: CoreColumns
    ) -> None:
        self.core_id = core_id
        self.columns = columns
        #: whether the core has departed for good
        self.departed = False
        #: the core's private L1 cache, bound by the simulator
        self.l1: SetAssociativeCache | None = None
        if trace is None:
            # An absent slot (scenario engine): never executes, but
            # keeps CoreResult/RunResult shapes uniform.
            self.benchmark = "(absent)"
            self.gaps = array("q")
            self.addresses = array("q")
            self.writes = array("b")
            self.warm_lines = array("q")
        else:
            self.active = True
            self.load_trace(trace)

    def load_trace(self, trace: Trace) -> None:
        """Bind (or rebind, on a phase change) the reference stream.

        Applies the core's private address-space offset and restarts
        the stream at position 0; execution counters keep running.
        """
        offset = (self.core_id + 1) << CORE_ADDRESS_SPACE_BITS
        self.benchmark = trace.name
        self.gaps = trace.gaps
        self.addresses, self.warm_lines = trace.for_core(offset)
        self.writes = trace.writes
        self.length = len(trace.line_addresses)
        self.position = 0

    @property
    def finished(self) -> bool:
        """Whether the measurement window for this core has closed."""
        return self.window_closed

    def start_measurement(self) -> None:
        """Reset the measured window (end of this core's warmup)."""
        self.instr_base = self.instructions
        self.cycle_base = self.time
        self.window_open = True

    def freeze(self) -> None:
        """Capture the measured window at the target reference count."""
        self.frozen_instructions = self.instructions - self.instr_base
        self.frozen_cycles = self.time - self.cycle_base
        self.window_closed = True
