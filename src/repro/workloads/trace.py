"""Synthetic trace generation from benchmark profiles.

A trace is three parallel arrays: the number of non-memory
instructions preceding each reference (``gaps``), the referenced line
address, and whether the reference is a store.  Traces are generated
deterministically from ``(profile, geometry, seed)`` so every
partitioning scheme sees byte-identical input — the comparisons in
the paper's figures are paired.

Address-space layout (line addresses):

* each ring ``k`` lives at ``(k + 1) << RING_REGION_BITS``;
* the hot (L1-resident) region lives at 0;
* the streaming component walks upward from ``STREAM_BASE``;
* the simulator offsets whole traces per core, keeping the
  multiprogrammed address spaces disjoint.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

from repro.cache.geometry import CacheGeometry
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.seeding import stable_rng

try:  # trace generation vectorizes with numpy but must not require it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: bits reserved for one ring's address region
RING_REGION_BITS = 24
#: line-address base of the streaming region
STREAM_BASE = 1 << 32


@dataclass
class Trace:
    """One core's reference stream.

    ``instructions`` counts every instruction the trace represents:
    each reference contributes its gap plus the memory instruction
    itself.  ``warm_lines`` lists the resident working set (hot region
    and every ring line, not the stream): the simulator pre-touches it
    before measurement, mirroring the paper's explicit cache-warming
    phase after fast-forward, so short traces are not dominated by
    compulsory misses the paper's 1B-instruction runs amortise away.

    The three parallel columns are ``array``-backed (``'q'`` for gaps
    and addresses, ``'b'`` 0/1 flags for writes) so a 100k-reference
    trace is three flat buffers, not 300k boxed Python objects; the
    simulator indexes them directly in its inner loop.
    """

    name: str
    gaps: "array[int]"
    line_addresses: "array[int]"
    writes: "array[int]"
    warm_lines: "array[int]"
    #: per-offset views built by :meth:`for_core`; never compared or
    #: shown — it is a cache, not part of the trace's identity
    _offset_views: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.line_addresses)

    @property
    def instructions(self) -> int:
        """Total instructions represented by the trace."""
        return sum(self.gaps) + len(self.gaps)

    def for_core(self, offset: int) -> "tuple[array[int], array[int]]":
        """``(line_addresses, warm_lines)`` shifted into a core's region.

        The simulator keeps multiprogrammed address spaces disjoint by
        offsetting whole traces per core slot.  The shifted columns
        are cached per offset: the arrays are read-only to every
        consumer (the interpreter indexes them, the kernels read them
        through buffer pointers), so one copy serves every run that
        places this trace in the same slot — which makes re-running a
        cached trace, e.g. across a threshold sweep in a persistent
        worker, skip the whole-trace rebuild it used to pay.
        """
        views = self._offset_views.get(offset)
        if views is None:
            views = (
                _shifted(self.line_addresses, offset),
                _shifted(self.warm_lines, offset),
            )
            self._offset_views[offset] = views
        return views


def _shifted(values: "array[int]", offset: int) -> "array[int]":
    """A copy of ``values`` with ``offset`` added to every element."""
    if _np is not None and len(values):
        out = array("q")
        out.frombytes(
            (_np.frombuffer(values, dtype=_np.int64) + offset).tobytes()
        )
        return out
    return array("q", (value + offset for value in values))


def _spread_addresses(base: int, lines: int, num_sets: int) -> list[int]:
    """Line addresses for a region, spread evenly over all cache sets.

    A naive contiguous layout concentrates a small region (fewer lines
    than sets) onto the low-index sets, and stacks every region onto
    the same sets because region bases are set-aligned.  Real L2/L3
    caches avoid exactly this with index hashing, so we model it: full
    ``num_sets``-sized layers map one line per set, and the remainder
    layer is spaced evenly across the index range.
    """
    addresses: list[int] = []
    full_layers, remainder = divmod(lines, num_sets)
    for layer in range(full_layers):
        layer_base = base + layer * num_sets
        addresses.extend(layer_base + s for s in range(num_sets))
    if remainder:
        layer_base = base + full_layers * num_sets
        addresses.extend(
            layer_base + (i * num_sets) // remainder for i in range(remainder)
        )
    return addresses


class _RingState:
    """Concrete, mutable state of one ring during generation."""

    __slots__ = ("addresses", "lines", "cyclic", "cursor")

    def __init__(self, index: int, lines: int, cyclic: bool, num_sets: int) -> None:
        base = (index + 1) << RING_REGION_BITS
        self.addresses = _spread_addresses(base, lines, num_sets)
        self.lines = lines
        self.cyclic = cyclic
        self.cursor = 0


def generate_trace(
    profile: BenchmarkProfile,
    llc_geometry: CacheGeometry,
    l1_lines: int,
    n_refs: int,
    seed: int = 0,
) -> Trace:
    """Generate ``n_refs`` references for ``profile``.

    Ring footprints scale with ``llc_geometry`` (``ways_worth`` x
    number of sets) so the same profile exercises the same *relative*
    pressure on the paper-scale and scaled-down caches.  The hot
    region is sized to half the L1 so it filters into L1 hits after
    warmup.
    """
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    # crc32, not hash(): str hashing is salted per process, and trace
    # identity must hold across the sweep executor's worker processes
    # (and across sessions sharing one result store).
    rng = stable_rng(profile.name, seed)
    num_sets = llc_geometry.num_sets
    rings = [
        _RingState(
            index,
            max(1, round(ring.ways_worth * num_sets)),
            ring.pattern == "cyclic",
            num_sets,
        )
        for index, ring in enumerate(profile.rings)
    ]
    hot_lines = max(1, l1_lines // 2)
    hot_addresses = _spread_addresses(0, hot_lines, num_sets)
    mean_gap = 1000.0 / profile.apki - 1.0

    # Phase schedule: a list of (duration, cumulative-weight table).
    phases = _phase_tables(profile, rings)

    # The per-reference work splits into two independent streams: the
    # weighted round-robin category pick consumes no randomness, and
    # the RNG words consumed per reference depend only on the category
    # (a rejection-sampled index draw for hot/uniform references, none
    # otherwise, then two uniforms for gap and write flag).  Computing
    # all categories first therefore leaves the Mersenne Twister word
    # stream untouched, and the column fill can replay that stream
    # either scalar (no numpy) or in bulk (vectorized) — byte-identical
    # traces by construction.  The two sequential loops (category
    # picks, draw resolution) run in the compiled kernel when it loads.
    kernel = _loops_kernel()
    categories = _category_sequence(phases, len(rings) + 2, n_refs, kernel)

    if _np is not None:
        gaps, addresses, writes = _fill_columns_numpy(
            profile, rng, categories, rings, hot_addresses, hot_lines,
            mean_gap, kernel,
        )
    else:
        gaps, addresses, writes = _fill_columns_python(
            profile, rng, categories, rings, hot_addresses, hot_lines, mean_gap
        )

    warm_lines: list[int] = list(hot_addresses)
    for ring in rings:
        warm_lines.extend(ring.addresses)

    return Trace(
        name=profile.name,
        gaps=gaps,
        line_addresses=addresses,
        writes=writes,
        warm_lines=array("q", warm_lines),
    )


def _loops_kernel():
    """The compiled kernel, loaded on first use, or None when it cannot
    load (the Python loops then run, with identical output)."""
    from repro.engine import compiled_available
    from repro.engine.build import load_kernel

    return load_kernel() if compiled_available() else None


def _address(values: array) -> int:
    return values.buffer_info()[0]


def _category_sequence(
    phases: list[tuple[int, list[float]]],
    n_categories: int,
    n_refs: int,
    kernel=None,
) -> "array[int]":
    """Per-reference category picks: 0 = hot, 1..n = rings, last = stream.

    Smooth weighted round-robin over categories (hot region, each
    ring, stream).  Deterministic interleaving keeps every
    component's rate exact and gives cyclic rings knife-edge reuse
    distances, which is what makes the UMON utility curves saturate
    sharply — the behaviour the paper's threshold lookahead relies
    on.  An iid category draw would smear each working-set knee over
    several ways (Poisson interleaving noise).

    ``kernel`` runs the same loop in C (``repro_category_sequence``).
    """
    if kernel is not None:
        durations = array("q", [duration for duration, _ in phases])
        weights = array("d", [w for _, row in phases for w in row])
        credits = array("d", bytes(8 * n_categories))
        out = array("q", bytes(8 * n_refs))
        kernel.repro_category_sequence(
            _address(durations), _address(weights), len(phases),
            n_categories, n_refs, _address(credits), _address(out),
        )
        return out

    credits = [0.0] * n_categories
    categories: list[int] = []
    append = categories.append
    phase_index = 0
    refs_left_in_phase = phases[0][0]
    category_range = range(1, n_categories)
    for _ in range(n_refs):
        if refs_left_in_phase <= 0:
            phase_index = (phase_index + 1) % len(phases)
            refs_left_in_phase = phases[phase_index][0]
        refs_left_in_phase -= 1
        weights = phases[phase_index][1]

        best = 0
        best_credit = credits[0] + weights[0]
        credits[0] = best_credit
        for index in category_range:
            credit = credits[index] + weights[index]
            credits[index] = credit
            if credit > best_credit:
                best = index
                best_credit = credit
        credits[best] -= 1.0
        append(best)
    return array("q", categories)


def _fill_columns_python(
    profile: BenchmarkProfile,
    rng: random.Random,
    categories: "array[int]",
    rings: list["_RingState"],
    hot_addresses: list[int],
    hot_lines: int,
    mean_gap: float,
) -> tuple["array[int]", "array[int]", "array[int]"]:
    """Scalar column fill — the no-numpy fallback and semantic reference."""
    n_categories = len(rings) + 2
    gaps: list[int] = []
    addresses: list[int] = []
    writes: list[bool] = []
    stream_cursor = 0
    choose = rng.random
    randrange = rng.randrange

    for best in categories:
        if best == 0:
            address = hot_addresses[randrange(hot_lines)]
        elif best == n_categories - 1:  # streaming component
            address = STREAM_BASE + stream_cursor
            stream_cursor += 1
        else:
            ring = rings[best - 1]
            if ring.cyclic:
                address = ring.addresses[ring.cursor]
                ring.cursor = (ring.cursor + 1) % ring.lines
            else:
                address = ring.addresses[randrange(ring.lines)]

        # Uniform in [0, 2*mean]; rounding keeps the mean unbiased so
        # instructions-per-reference matches the profile's APKI.
        gap = int(choose() * 2.0 * mean_gap + 0.5)
        gaps.append(gap)
        addresses.append(address)
        writes.append(choose() < profile.write_ratio)

    return array("q", gaps), array("q", addresses), array("b", writes)


class _WordStream:
    """Bulk access to CPython's Mersenne Twister output stream.

    ``Random.randbytes(4 * k)`` emits exactly ``k`` generator words,
    each stored little-endian — the identical word sequence
    ``getrandbits(32)`` (and hence ``random()``/``randrange``) would
    consume, but produced by one C call instead of ``k`` Python-level
    ones.  The words live in one ``array('I')``: indexed directly by
    the rejection-sampling resolution (Python or kernel) and viewed
    as a numpy array by the vectorized column math.  Only whole words
    are ever requested, so the buffer stays word-aligned with the
    generator state.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.words: "array[int]" = array("I")

    def ensure(self, count: int) -> None:
        """Grow the emitted-word buffer to at least ``count`` words."""
        have = len(self.words)
        if have < count:
            need = max(count - have, 4096)
            self.words.frombytes(self._rng.randbytes(4 * need))

    def asarray(self, count: int) -> "_np.ndarray":
        """The first ``count`` words as one uint32 array (buffer view)."""
        self.ensure(count)
        return _np.frombuffer(self.words, dtype=_np.uint32, count=count)


def _fill_columns_numpy(
    profile: BenchmarkProfile,
    rng: random.Random,
    categories: "array[int]",
    rings: list["_RingState"],
    hot_addresses: list[int],
    hot_lines: int,
    mean_gap: float,
    kernel=None,
) -> tuple["array[int]", "array[int]", "array[int]"]:
    """Vectorized column fill, bit-identical to the scalar path.

    Word accounting: each reference consumes its category's index draw
    (``randrange``, i.e. rejection sampling over ``bit_length``-wide
    words — zero or more words) followed by exactly four words (two
    per ``random()`` call, for the gap and the write flag).  Rejection
    lengths are data-dependent, so the draws resolve in one sequential
    pass over the pregenerated words (in the kernel when it loads);
    everything downstream of the resulting offsets — gap arithmetic,
    write thresholds, address table lookups, stream/cyclic cursors —
    is pure array math.
    """
    n_refs = len(categories)
    n_categories = len(rings) + 2

    # Per-category draw modulus (0 = the category consumes no draw).
    moduli = [hot_lines]
    for ring in rings:
        moduli.append(0 if ring.cyclic else ring.lines)
    moduli.append(0)
    shifts = [32 - m.bit_length() if m else 0 for m in moduli]

    words = _WordStream(rng)
    words.ensure(4 * n_refs + 624)
    emitted = words.words
    draw_words = array("q", bytes(8 * n_refs))
    draw_values = array("q", bytes(8 * n_refs))
    if kernel is not None:
        # repro_resolve_draws: the same pass in C, pausing whenever
        # the word stream must grow
        cursor = array("q", [0, 0])
        moduli_arr = array("q", moduli)
        shifts_arr = array("q", shifts)
        while needed := kernel.repro_resolve_draws(
            _address(categories), n_refs,
            _address(moduli_arr), _address(shifts_arr),
            _address(emitted), len(emitted),
            _address(draw_words), _address(draw_values), _address(cursor),
        ):
            words.ensure(needed + 624)
        extra = cursor[1]
    else:
        extra = 0
        for index, category in enumerate(categories):
            modulus = moduli[category]
            if modulus:
                shift = shifts[category]
                start = position = 4 * index + extra
                while True:
                    if position >= len(emitted):
                        words.ensure(position + 624)
                    value = emitted[position] >> shift
                    if value < modulus:
                        break
                    position += 1
                draw_words[index] = position + 1 - start
                draw_values[index] = value
                extra += position + 1 - start

    total_words = 4 * n_refs + extra
    word_arr = words.asarray(total_words)

    consumed_arr = _np.frombuffer(draw_words, dtype=_np.int64)
    offsets = _np.arange(n_refs, dtype=_np.int64) * 4
    offsets[1:] += _np.cumsum(consumed_arr)[:-1]
    gap_index = offsets + consumed_arr  # first post-draw word per ref

    # CPython random(): ((a >> 5) * 2**26 + (b >> 6)) * 2**-53 over two
    # consecutive words — exact in float64, so numpy reproduces it.
    def uniform(at: "_np.ndarray") -> "_np.ndarray":
        high = (word_arr[at] >> _np.uint32(5)).astype(_np.float64)
        low = (word_arr[at + 1] >> _np.uint32(6)).astype(_np.float64)
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)

    gaps_np = _np.trunc(uniform(gap_index) * 2.0 * mean_gap + 0.5).astype(
        _np.int64
    )
    writes_np = (uniform(gap_index + 2) < profile.write_ratio).astype(_np.int8)

    addresses_np = _np.empty(n_refs, dtype=_np.int64)
    category_arr = _np.frombuffer(categories, dtype=_np.int64)
    value_arr = _np.frombuffer(draw_values, dtype=_np.int64)

    hot_mask = category_arr == 0
    addresses_np[hot_mask] = _np.asarray(hot_addresses, dtype=_np.int64)[
        value_arr[hot_mask]
    ]
    stream_mask = category_arr == n_categories - 1
    addresses_np[stream_mask] = STREAM_BASE + _np.arange(
        int(stream_mask.sum()), dtype=_np.int64
    )
    for ring_index, ring in enumerate(rings):
        mask = category_arr == ring_index + 1
        table = _np.asarray(ring.addresses, dtype=_np.int64)
        if ring.cyclic:
            count = int(mask.sum())
            addresses_np[mask] = table[
                _np.arange(count, dtype=_np.int64) % ring.lines
            ]
        else:
            addresses_np[mask] = table[value_arr[mask]]

    gaps = array("q")
    gaps.frombytes(gaps_np.tobytes())
    addresses = array("q")
    addresses.frombytes(addresses_np.tobytes())
    writes = array("b")
    writes.frombytes(writes_np.tobytes())
    return gaps, addresses, writes


def _phase_tables(
    profile: BenchmarkProfile,
    rings: list[_RingState],
) -> list[tuple[int, list[float]]]:
    """Per-phase category weight vectors: [hot, ring..., stream].

    Ring/stream weights are absolute fractions of all references; the
    mass not covered by rings+stream goes to the hot (L1-resident)
    region, so profiles control the absolute LLC access rate directly.
    """
    tables: list[tuple[int, list[float]]] = []
    if profile.phases:
        for phase in profile.phases:
            if len(phase.ring_weights) != len(profile.rings):
                raise ValueError(
                    f"{profile.name}: phase has {len(phase.ring_weights)} ring "
                    f"weights for {len(profile.rings)} rings"
                )
            tables.append(
                (
                    phase.duration_refs,
                    _weight_vector(phase.ring_weights, phase.stream_weight),
                )
            )
    else:
        weights = tuple(ring.weight for ring in profile.rings)
        tables.append((1 << 62, _weight_vector(weights, profile.stream_weight)))
    return tables


def _weight_vector(
    ring_weights: tuple[float, ...], stream_weight: float
) -> list[float]:
    """[hot, ring..., stream] weights summing to 1."""
    covered = sum(ring_weights) + stream_weight
    if covered > 1.0:
        raise ValueError(f"mixture weights sum to {covered:.3f} > 1")
    return [1.0 - covered, *ring_weights, stream_weight]
