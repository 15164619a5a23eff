"""The compiled execution engine: whole spans in C, boundaries in Python.

:func:`run_compiled` drives :mod:`repro.engine.kernel` (kernel.c,
built/loaded by :mod:`repro.engine.build`) through the simulator's
shared run protocol.  The C kernel executes references in exact global
order between boundaries; everything episodic — partitioning epochs,
scenario events, warmup reset, takeover completions — runs in the
ordinary Python machinery between spans.  The contract is bit-exact
equality with ``CMPSimulator._run_python`` on every supported
configuration; the golden fixtures and ``tests/engine`` pin it.

Marshalling strategy.  Machine state has one owner, a Python object,
and one format, that owner's own arrays; the kernel mutates it **in
place**:

* shared for the whole run (addresses taken once in :class:`_Marshal`;
  the owners never rebind or resize these arrays): the flat
  ``tags``/``mapped``/``stamp``/``owner``/``dirty`` columns of every L1
  and the LLC (no per-set pointer tables), each cache's recency
  ``clock`` and ``core_occupancy`` counters, each ATD's
  ``stack``/``depth``, the simulator's per-core scheduler columns
  (:class:`~repro.sim.cpu.CoreColumns`), the hierarchy's L1 counters,
  the :class:`~repro.partitioning.base.PolicyStats` per-core counters,
  the policy's way tables, the memory's bank timers and the DVFS timing
  rows and stall counters;
* shared per span (addresses refreshed in ``span_in``, because the
  objects are replaced mid-run): trace columns, takeover-vector
  ``bits`` and UCP transition counters.

Still copied in and out of each span, on purpose: the O(1) scalars
(energy, memory and ``PolicyStats`` scalars, ``takeover_events``, the
policy's hook flags), the ATD hit counters (plain lists that callers
may replace), and the dict-shaped UCP target/transition and
cooperative takeover bookkeeping.  Order-sensitive dict/list side
effects (flush timelines, transfer flush buckets, UCP transition
durations) come back through an ordered event buffer and are replayed
chronologically.

A policy whose access path the kernel does not model — custom hooks
outside the five built-in schemes — silently falls back to the
pure-Python engine; selection stays an optimisation, never a
behaviour change.
"""

from __future__ import annotations

import ctypes
from array import array
from time import perf_counter

from repro.engine.build import (
    ST_BOUNDARY,
    ST_DONE,
    ST_ERROR,
    ST_EVBUF_FULL,
    ST_NEED_PYTHON_REF,
    ST_WARMUP_GATE,
    load_kernel,
)
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import recorder as obs_recorder
from repro.sim.cpu import COLUMN_FIELDS

_NEVER = 1 << 62

KIND_TABLED = 0
KIND_UCP = 1
KIND_COOP = 2

_CANARY = 0x5EED1DEA5EED1DEA
#: event-buffer capacity in triples (one buffer per run, zeroed at
#: allocation): the kernel bails with ST_EVBUF_FULL once fewer than its
#: 2,048-triple per-reference headroom remain, so a span that records
#: more than 2,048 triples returns early and the driver resumes it
_EVBUF_TRIPLES = 4096

_EV_FLUSH_TL = 1
_EV_TFB = 2
_EV_TRANS_DUR = 3

_i64 = ctypes.c_int64

#: (simulator attribute, owner field, ctx field): the O(1) scalars
#: copied into and out of every span
_SCALARS = (
    ("energy", "tag_probes", "e_tag_probes"),
    ("energy", "data_reads", "e_data_reads"),
    ("energy", "data_writes", "e_data_writes"),
    ("energy", "writebacks", "e_writebacks"),
    ("energy", "monitor_updates", "e_monitor_updates"),
    ("memory", "reads", "mem_reads"),
    ("memory", "writebacks", "mem_writebacks"),
    ("memory", "read_stall_cycles", "mem_read_stall"),
    ("stats", "transfer_flushes", "transfer_flushes"),
    ("stats", "transitions_completed", "transitions_completed"),
)
#: PolicyStats.takeover_events keys; ctx field ``tk_<key>``
_TAKEOVER_KEYS = ("donor_hit", "donor_miss", "recipient_hit", "recipient_miss")


class _Ctx(ctypes.Structure):
    """Field-for-field mirror of the ``Ctx`` struct in kernel.c.

    Every field is 8 bytes (int64 or a pointer stored as int64); the
    ABI size check at load time catches any drift.
    """

    _fields_ = [(name, _i64) for name in (
        "canary",
        # constants
        "n_cores", "issue_shift", "l1_latency", "miss_latency",
        "l2_latency", "target", "warmup", "llc_set_mask", "llc_set_shift",
        "llc_ways", "llc_nsets", "policy_kind", "has_dvfs", "mem_latency",
        "mem_nbanks", "mem_bank_busy", "mem_bank_shift",
        "flush_bucket_cycles", "stats_bucket_cycles", "has_monitors",
        "umon_mask", "umon_offset", "umon_shift",
        "last_decision_cycle", "l1_ways", "l1_mask", "l1_shift",
        # loop state
        "warmed_up", "unfinished", "boundary", "bail_now", "bail_core",
        # per-core scalars
        *("core_" + name for name in COLUMN_FIELDS),
        # traces
        "trace_gaps", "trace_addr", "trace_writes",
        # L1
        "l1_tags", "l1_stamp", "l1_owner", "l1_dirty", "l1_clock",
        "l1_occ", "l1_hits", "l1_misses", "l1_writebacks",
        # LLC
        "llc_tags", "llc_stamp", "llc_owner", "llc_dirty", "llc_clock",
        "llc_mapped", "llc_occ",
        # policy fast tables
        "probe_mask", "probe_count", "fill_count", "fill_ways",
        "custom_victim", "pre_access_active", "post_fill_active",
        # statistics
        "ways_probed_sum", "probe_events", "writeback_accesses",
        "demand_accesses", "demand_hits",
        # energy
        "e_tag_probes", "e_data_reads", "e_data_writes", "e_writebacks",
        "e_monitor_updates",
        # memory
        "bank_free_at", "mem_reads", "mem_writebacks", "mem_read_stall",
        # policy-stats scalars
        "transfer_flushes", "transitions_completed", "tk_donor_hit",
        "tk_donor_miss", "tk_recipient_hit", "tk_recipient_miss",
        # dvfs
        "dvfs_entries", "dvfs_stall",
        # atd
        "atd_stack", "atd_len", "atd_pos_hits", "atd_misses",
        "atd_accesses",
        # ucp
        "ucp_target", "ucp_known", "ucp_counts", "ucp_trans_active",
        "ucp_gained", "ucp_complete", "ucp_ways_gained", "ucp_ways_done",
        "ucp_start_cycle",
        # cooperative takeover
        "engine_active", "coop_donor_count", "coop_donor_ways",
        "coop_rs_count", "coop_rs_donor", "coop_rs_nways", "coop_rs_ways",
        "coop_recv_count", "coop_recv_ways", "coop_vec_bits",
        "coop_vec_count",
        # event buffer
        "evbuf", "evbuf_cap", "evbuf_len",
        # prewarm sweep
        "warm_lines", "warm_len", "warm_round", "warm_core",
    )]


def _addr(arr: array) -> int:
    return arr.buffer_info()[0]


def _table(columns) -> array:
    """A pointer table: the addresses of ``columns``, in order."""
    return array("q", [_addr(col) for col in columns] or [0])


def _qzeros(n: int) -> array:
    return array("q", bytes(8 * max(1, n)))


def policy_kind(policy) -> int | None:
    """Classify ``policy`` for the kernel; None = not modelled.

    The kernel transliterates the shared ``access_fast`` skeleton plus
    the UCP and Cooperative Partitioning access hooks.  Any policy
    whose access path is *data-only* (way tables, no hook overrides)
    is supported generically; the two hook-bearing schemes are matched
    by exact type so a subclass with different hooks falls back.
    """
    from repro.core.policy import CooperativePartitioningPolicy
    from repro.monitor.atd import AuxiliaryTagDirectory
    from repro.partitioning.base import BaseSharedCachePolicy

    if not isinstance(policy, BaseSharedCachePolicy):
        return None
    cls = type(policy)
    if cls.access_fast is not BaseSharedCachePolicy.access_fast:
        return None
    if getattr(policy, "_dynamic_ways", True):
        return None
    for atd in policy._atds:
        if type(atd) is not AuxiliaryTagDirectory:
            return None

    from repro.cache.replacement import PartitionAwareVictimSelector
    from repro.partitioning.ucp import UCPPolicy

    if cls is UCPPolicy:
        if not policy._custom_victim or policy._pre_access_active:
            return None
        if type(policy._selector) is not PartitionAwareVictimSelector:
            return None
        return KIND_UCP
    if cls is CooperativePartitioningPolicy:
        if policy._post_fill_active:
            return None
        return KIND_COOP
    if (
        policy._custom_victim
        or policy._pre_access_active
        or policy._post_fill_active
    ):
        return None
    return KIND_TABLED


class _Marshal:
    """Per-run kernel context: shared addresses once, copies per span."""

    def __init__(self, sim, lib, kind: int, issue_shift: int) -> None:
        self.sim = sim
        self.lib = lib
        self.kind = kind
        config = sim.config
        policy = sim.policy
        hierarchy = sim.hierarchy
        n = config.n_cores
        self.n = n
        geometry = policy.geometry
        self.W = W = geometry.ways
        l1_geom = hierarchy.l1[0].geometry

        ctx = _Ctx()
        self.ctx = ctx
        abi = lib.repro_abi_size()
        if abi != ctypes.sizeof(_Ctx):
            raise RuntimeError(
                f"kernel ABI mismatch: C sizeof(Ctx)={abi}, "
                f"ctypes={ctypes.sizeof(_Ctx)}"
            )
        ctx.canary = _CANARY

        # ---- constants -----------------------------------------------
        ctx.n_cores = n
        ctx.issue_shift = issue_shift
        ctx.l1_latency = hierarchy.l1_latency
        ctx.miss_latency = sim._miss_latency
        ctx.l2_latency = config.l2_latency
        ctx.target = 0   # set by run_compiled after _begin_run
        ctx.warmup = 0
        ctx.llc_set_mask = geometry.set_mask
        ctx.llc_set_shift = geometry.set_shift
        ctx.llc_ways = W
        ctx.llc_nsets = geometry.num_sets
        ctx.policy_kind = kind
        ctx.has_dvfs = 0 if sim.dvfs is None else 1
        memory = sim.memory
        ctx.mem_latency = memory.latency
        ctx.mem_nbanks = memory.n_banks
        ctx.mem_bank_busy = memory.bank_busy
        ctx.mem_bank_shift = memory._bank_shift
        ctx.flush_bucket_cycles = memory.flush_bucket_cycles
        ctx.stats_bucket_cycles = sim.stats.flush_bucket_cycles
        atds = policy._atds
        ctx.has_monitors = 1 if atds else 0
        ctx.umon_mask = policy._umon_mask
        ctx.umon_offset = policy._umon_offset
        # an ATD slot is its set's index among the sampled sets
        ctx.umon_shift = (policy._umon_mask + 1).bit_length() - 1 if atds else 0
        ctx.l1_ways = l1_geom.ways
        ctx.l1_mask = sim._l1_mask
        ctx.l1_shift = sim._l1_shift

        self._scalars = [
            (getattr(sim, owner), name, field)
            for owner, name, field in _SCALARS
        ]

        # ---- shared for the run: the owners' own arrays ---------------
        columns = sim.core_columns
        for name in COLUMN_FIELDS:
            setattr(ctx, "core_" + name, _addr(getattr(columns, name)))
        # per-core pointer tables: each L1's columns, clock and counters
        self._tables = tables = {
            "l1_" + name: _table(getattr(l1, name) for l1 in hierarchy.l1)
            for name in ("tags", "stamp", "owner", "dirty", "clock")
        }
        tables["l1_occ"] = _table(l1.core_occupancy for l1 in hierarchy.l1)
        tables["atd_stack"] = _table(atd.stack for atd in atds)
        tables["atd_len"] = _table(atd.depth for atd in atds)
        for name, table in tables.items():
            setattr(ctx, name, _addr(table))
        stats = sim.stats
        dvfs = sim.dvfs
        llc = policy.cache
        for name in ("tags", "stamp", "owner", "dirty", "mapped"):
            setattr(ctx, "llc_" + name, _addr(getattr(llc, name)))
        for name, owned in (
            ("l1_hits", hierarchy.l1_hits),
            ("l1_misses", hierarchy.l1_misses),
            ("l1_writebacks", hierarchy.l1_writebacks),
            ("llc_clock", llc.clock),
            ("llc_occ", llc.core_occupancy),
            ("probe_mask", policy._probe_masks),
            ("probe_count", policy._probe_counts),
            ("fill_count", policy._fill_counts),
            ("fill_ways", policy._fill_table),
            ("ways_probed_sum", stats.ways_probed_sum),
            ("probe_events", stats.probe_events),
            ("writeback_accesses", stats.writeback_accesses),
            ("demand_accesses", stats.demand_accesses),
            ("demand_hits", stats.demand_hits),
            ("bank_free_at", memory._bank_free_at),
        ):
            setattr(ctx, name, _addr(owned))
        if dvfs is not None:
            ctx.dvfs_entries = _addr(dvfs.entries)
            ctx.dvfs_stall = _addr(dvfs.stall)

        # ---- the marshal's own staging arrays, each at
        # ``self._<field>``: per-span pointer tables (PHASE rebinds
        # traces), the still-copied bookkeeping, the event buffer and
        # the warm sweep's per-call tables
        for name, size in (
            ("trace_gaps", n), ("trace_addr", n), ("trace_writes", n),
            ("atd_pos_hits", n * W), ("atd_misses", n), ("atd_accesses", n),
            ("ucp_target", n), ("ucp_counts", n), ("ucp_trans_active", n),
            ("ucp_gained", n), ("ucp_complete", n), ("ucp_ways_gained", n),
            ("ucp_ways_done", n), ("ucp_start_cycle", n),
            ("coop_donor_count", n), ("coop_donor_ways", n * W),
            ("coop_rs_count", n), ("coop_rs_donor", n * n),
            ("coop_rs_nways", n * n), ("coop_rs_ways", n * n * W),
            ("coop_recv_count", n), ("coop_recv_ways", n * W),
            ("coop_vec_bits", n), ("coop_vec_count", n),
            ("evbuf", 3 * _EVBUF_TRIPLES), ("warm_lines", n), ("warm_len", n),
        ):
            staged = _qzeros(size)
            setattr(self, "_" + name, staged)
            setattr(ctx, name, _addr(staged))
        ctx.evbuf_cap = _EVBUF_TRIPLES

    # ------------------------------------------------------------------
    def warm(self, cores) -> None:
        """``CMPSimulator._prewarm`` in C: one span_in/span_out around
        the interleaved sweep of ``cores`` (those present at run start,
        or one late arrival).  A line whose access would complete a
        takeover vector — possible when a core arrives mid-takeover —
        is warmed through the Python path, and the sweep resumes after
        it.
        """
        sim = self.sim
        ctx = self.ctx
        ctx_ptr = ctypes.addressof(ctx)
        warm_sweep = self.lib.repro_warm_sweep
        warm_len = self._warm_len
        for ci in range(self.n):
            warm_len[ci] = 0
        for core in cores:
            # read per call: a PHASE event may have swapped the trace
            self._warm_lines[core.core_id] = _addr(core.warm_lines)
            warm_len[core.core_id] = len(core.warm_lines)
        ctx.warm_round = 0
        ctx.warm_core = 0
        while True:
            self.span_in(0, 0, False)
            status = warm_sweep(ctx_ptr)
            self.span_out()
            if status == ST_DONE:
                return
            if status == ST_NEED_PYTHON_REF:
                core = sim.cores[ctx.bail_core]
                sim._warm_access(
                    core, core.warm_lines[ctx.warm_round],
                    sim._l1_mask, sim._l1_shift,
                    sim._l1_hit_cost(core.core_id),
                    sim.hierarchy.l1_hits, sim._l1_miss,
                )
                ctx.warm_core += 1
            elif status != ST_EVBUF_FULL:
                raise RuntimeError(
                    f"compiled warm sweep returned status {status}"
                )

    # ------------------------------------------------------------------
    def span_in(self, boundary: int, unfinished: int,
                warmed_up: bool) -> None:
        """Set the span's loop state and copy the still-copied state in."""
        sim = self.sim
        ctx = self.ctx
        W = self.W
        ctx.boundary = boundary
        ctx.unfinished = unfinished
        ctx.warmed_up = 1 if warmed_up else 0
        ctx.evbuf_len = 0
        ctx.bail_now = 0
        ctx.bail_core = -1

        gap_tbl = self._trace_gaps
        addr_tbl = self._trace_addr
        write_tbl = self._trace_writes
        for ci, core in enumerate(sim.cores):
            gap_tbl[ci] = _addr(core.gaps)
            addr_tbl[ci] = _addr(core.addresses)
            write_tbl[ci] = _addr(core.writes)

        policy = sim.policy
        ctx.custom_victim = 1 if policy._custom_victim else 0
        ctx.pre_access_active = 1 if policy._pre_access_active else 0
        ctx.post_fill_active = 1 if policy._post_fill_active else 0

        for owner, name, field in self._scalars:
            setattr(ctx, field, getattr(owner, name))
        stats = sim.stats
        ldc = stats.last_decision_cycle
        ctx.last_decision_cycle = -1 if ldc is None else ldc
        events = stats.takeover_events
        for key in _TAKEOVER_KEYS:
            setattr(ctx, "tk_" + key, events[key])

        atds = policy._atds
        if atds:
            pos_arr = self._atd_pos_hits
            miss_arr = self._atd_misses
            acc_arr = self._atd_accesses
            for ci, atd in enumerate(atds):
                base = ci * W
                for j, hits in enumerate(atd.position_hits):
                    pos_arr[base + j] = hits
                miss_arr[ci] = atd.misses
                acc_arr[ci] = atd.accesses

        if self.kind == KIND_UCP:
            self._ucp_in()
        elif self.kind == KIND_COOP:
            self._coop_in()
        else:
            ctx.engine_active = 0

    def _ucp_in(self) -> None:
        ctx = self.ctx
        policy = self.sim.policy
        selector = policy._selector
        target_list = selector._target_list
        known = len(selector._counts)
        ctx.ucp_known = known
        ctx.engine_active = 0
        tgt = self._ucp_target
        for ci in range(known):
            value = target_list[ci]
            tgt[ci] = -1 if value is None else value
        active = self._ucp_trans_active
        gained = self._ucp_gained
        complete = self._ucp_complete
        ways_gained = self._ucp_ways_gained
        ways_done = self._ucp_ways_done
        start = self._ucp_start_cycle
        transitions = policy._transitions
        self._span_ucp = []
        for ci in range(self.n):
            transition = transitions.get(ci)
            if transition is None:
                active[ci] = 0
                gained[ci] = 0
                complete[ci] = 0
                continue
            active[ci] = 1
            gained[ci] = _addr(transition.gained_per_set)
            complete[ci] = _addr(transition.complete_sets)
            ways_gained[ci] = transition.ways_gained
            ways_done[ci] = transition.ways_done
            start[ci] = transition.start_cycle
            self._span_ucp.append(ci)

    def _coop_in(self) -> None:
        ctx = self.ctx
        engine = self.sim.policy.engine
        n = self.n
        W = self.W
        ctx.engine_active = 1 if engine.active else 0
        donor_count = self._coop_donor_count
        donor_ways = self._coop_donor_ways
        rs_count = self._coop_rs_count
        rs_donor = self._coop_rs_donor
        rs_nways = self._coop_rs_nways
        rs_ways = self._coop_rs_ways
        recv_count = self._coop_recv_count
        recv_ways = self._coop_recv_ways
        vec_bits = self._coop_vec_bits
        vec_count = self._coop_vec_count
        self._span_donors = donors = []
        for ci in range(n):
            ways = engine._donor_ways.get(ci, ())
            donor_count[ci] = len(ways)
            base = ci * W
            for k, way in enumerate(ways):
                donor_ways[base + k] = way
            sources = engine._recipient_sources.get(ci)
            if sources is None:
                rs_count[ci] = 0
            else:
                rs_count[ci] = len(sources)
                for k, (donor, dways) in enumerate(sources.items()):
                    idx = ci * n + k
                    rs_donor[idx] = donor
                    rs_nways[idx] = len(dways)
                    wbase = idx * W
                    for j, way in enumerate(dways):
                        rs_ways[wbase + j] = way
            receiving = engine.receiving_ways(ci)
            recv_count[ci] = len(receiving)
            for k, way in enumerate(receiving):
                recv_ways[base + k] = way
            vector = engine.vectors.get(ci)
            if vector is None:
                vec_bits[ci] = 0
                vec_count[ci] = 0
            else:
                vec_bits[ci] = _addr(vector.bits)
                vec_count[ci] = vector.set_count
                donors.append(ci)

    # ------------------------------------------------------------------
    def span_out(self) -> None:
        """Replay the span's events and copy the still-copied state out."""
        sim = self.sim
        ctx = self.ctx
        W = self.W

        # Ordered side effects first: the flush/bucket dicts must see
        # keys in chronological order across the whole run.
        memory = sim.memory
        stats = sim.stats
        evbuf = self._evbuf
        timeline = memory.flush_timeline
        buckets = stats.transfer_flush_buckets
        durations = stats.transition_durations
        for e in range(ctx.evbuf_len):
            base = e * 3
            kind = evbuf[base]
            value = evbuf[base + 1]
            if kind == _EV_FLUSH_TL:
                timeline[value] += evbuf[base + 2]
            elif kind == _EV_TFB:
                buckets[value] += evbuf[base + 2]
            else:
                durations.append(value)

        for owner, name, field in self._scalars:
            setattr(owner, name, getattr(ctx, field))
        events = stats.takeover_events
        for key in _TAKEOVER_KEYS:
            events[key] = getattr(ctx, "tk_" + key)

        policy = sim.policy
        atds = policy._atds
        if atds:
            pos_arr = self._atd_pos_hits
            miss_arr = self._atd_misses
            acc_arr = self._atd_accesses
            for ci, atd in enumerate(atds):
                base = ci * W
                hits = atd.position_hits
                for j in range(W):
                    hits[j] = pos_arr[base + j]
                atd.misses = miss_arr[ci]
                atd.accesses = acc_arr[ci]

        if self.kind == KIND_UCP:
            active = self._ucp_trans_active
            ways_done = self._ucp_ways_done
            transitions = policy._transitions
            for ci in self._span_ucp:
                transition = transitions[ci]
                transition.ways_done = ways_done[ci]
                if not active[ci]:
                    del transitions[ci]
            policy._post_fill_active = bool(transitions)
        elif self.kind == KIND_COOP:
            engine = policy.engine
            vec_count = self._coop_vec_count
            for ci in self._span_donors:
                engine.vectors[ci].set_count = vec_count[ci]


# ----------------------------------------------------------------------
def _scalar_ref(sim, ci, target, warmup, unfinished, warmed_up, clock,
                issue_shift):
    """Execute exactly one reference of core ``ci`` in Python.

    Used when the kernel bails out on a reference that would complete
    a takeover vector: the completion restructures the policy (RAP
    withdrawal, power gating), so the whole reference — including the
    mid-reference restructure — runs through the reference loop's
    scalar body.  Mirrors ``CMPSimulator._run_python``'s per-reference
    section on the shared columns, with the miss path through
    ``CMPSimulator._l1_miss``.
    """
    core = sim.cores[ci]
    columns = sim.core_columns
    times = columns.time
    positions = columns.position
    refs_done = columns.refs_done
    now = times[ci]
    dvfs = sim.dvfs

    position = positions[ci]
    gap = core.gaps[position]
    address = core.addresses[position]
    is_write = core.writes[position]
    if dvfs is None:
        issue_time = now + (gap >> issue_shift)
        hit_latency = sim.hierarchy.l1_latency
    else:
        row = ci << 2
        entries = dvfs.entries
        issue_time = (
            now + (gap >> issue_shift) * entries[row] // entries[row + 1]
        )
        hit_latency = entries[row + 2]

    set_index = address & sim._l1_mask
    tag = address >> sim._l1_shift
    l1 = core.l1
    base = set_index * sim._l1_ways
    lines = l1.tags[base:base + sim._l1_ways]
    if tag in lines:
        way = lines.index(tag)
        l1.touch(set_index, way)
        if is_write:
            l1.dirty[base + way] = 1
        sim.hierarchy.l1_hits[ci] += 1
        times[ci] = issue_time + hit_latency
    else:
        times[ci] = issue_time + sim._l1_miss(
            ci, address, is_write, issue_time, l1, set_index, tag, lines
        )
    columns.instructions[ci] += gap + 1
    position += 1
    positions[ci] = 0 if position == columns.length[ci] else position
    done = refs_done[ci] + 1
    refs_done[ci] = done

    if done == warmup and not columns.window_open[ci]:
        core.start_measurement()
        if not warmed_up and sim._warm_gate_passed(warmup):
            sim._end_warmup()
            warmed_up = True
            if sim.energy.window_start > clock:
                clock = sim.energy.window_start
    if done == target and not columns.window_closed[ci]:
        core.freeze()
        unfinished -= 1
    return unfinished, warmed_up, clock


# ----------------------------------------------------------------------
def _observe_kernel_span(seconds, refs):
    from repro.obs import builtin as obs_metrics

    obs_metrics.KERNEL_SPAN_SECONDS.observe(seconds)
    obs_metrics.KERNEL_SPAN_REFS.observe(refs)


def run_compiled(sim):
    """Run ``sim`` on the C kernel; bit-identical to the Python loop.

    Falls back to the pure-Python engine when the policy's access path
    is not one the kernel models.
    """
    kind = policy_kind(sim.policy)
    if kind is None:
        return sim._run_python()

    lib = load_kernel()
    config = sim.config
    issue_shift = max(0, config.issue_width.bit_length() - 1)
    marshal = _Marshal(sim, lib, kind, issue_shift)
    ctx = marshal.ctx
    ctx_ptr = ctypes.addressof(ctx)
    run_span = lib.repro_run_span

    (
        target, warmup, warmed_up, unfinished, next_epoch, _initial,
    ) = sim._begin_run(warm=marshal.warm)
    ctx.target = target
    ctx.warmup = warmup
    events = sim._pending_events
    event_index = 0
    next_event = events[0].at_cycle if events else _NEVER
    clock = 0
    rec = obs_recorder()
    trace_spans = rec.enabled
    observe_span = _observe_kernel_span if metrics_enabled() else None
    # Span timing runs when either sink wants it; each sink is then
    # fed independently (metrics without tracing and vice versa).
    measure_spans = trace_spans or observe_span is not None
    refs_done = sim.core_columns.refs_done

    while unfinished:
        boundary = next_epoch if next_epoch < next_event else next_event
        if measure_spans:
            refs_before = sum(refs_done)
            span_start = perf_counter()
        marshal.span_in(boundary, unfinished, warmed_up)
        status = run_span(ctx_ptr)
        marshal.span_out()
        if measure_spans:
            seconds = perf_counter() - span_start
            refs = sum(refs_done) - refs_before
            if trace_spans:
                rec.kernel_span(seconds, refs=refs, boundary=boundary)
            if observe_span is not None:
                observe_span(seconds, refs)
        unfinished = ctx.unfinished
        if status == ST_DONE:
            break
        if status == ST_BOUNDARY:
            (
                clock, next_epoch, next_event, event_index,
                unfinished, warmed_up, _rekey,
            ) = sim._advance_boundary(
                ctx.bail_now, clock, next_epoch, next_event,
                event_index, unfinished, warmed_up,
            )
        elif status == ST_WARMUP_GATE:
            if not warmed_up and sim._warm_gate_passed(warmup):
                sim._end_warmup()
                warmed_up = True
                if sim.energy.window_start > clock:
                    clock = sim.energy.window_start
        elif status == ST_NEED_PYTHON_REF:
            unfinished, warmed_up, clock = _scalar_ref(
                sim, ctx.bail_core, target, warmup, unfinished, warmed_up,
                clock, issue_shift,
            )
        elif status == ST_EVBUF_FULL:
            pass
        else:  # ST_ERROR or an unknown status
            raise RuntimeError(
                f"compiled kernel returned status {status} "
                f"(corrupt context or empty victim way set)"
            )
    return sim._finish_run(clock, event_index)
