"""A set-associative cache: flat line-state columns for the whole cache.

This class provides *mechanism only*: probe a subset of ways, fill a
line evicting a chosen victim, flush or invalidate lines.  All *policy*
(which ways may be probed or filled, who the victim is, what happens on
an epoch boundary) lives in ``repro.partitioning`` and ``repro.core``.

Representation.  Line state is one flat column per field for the whole
cache, line ``way`` of set ``s`` at ``s * ways + way``.  The Python
engine mutates the columns in place and the compiled kernel addresses
them directly (one pointer per column, taken once per run), so they are
never rebound and never change length.  Whole-way operations read and
write strided slices (``tags[way::ways]``) instead of looping over sets.

* ``tags``/``owner`` are ``array('q')`` columns with a ``-1`` sentinel
  (:data:`NO_TAG`/``NO_OWNER``); an invalid line is always unowned;
* ``dirty`` is an ``array('B')`` of 0/1 flags;
* recency is a monotonically increasing **stamp** per line: a touch
  stores the cache's one-element ``clock`` and advances it, and the LRU
  victim is the minimum stamp among the candidate ways (stamps are
  only compared within a set, so one counter per cache induces the
  order per-set counters would);
* ``mapped`` is the LLC lookup column: it holds a tag only at the way
  with the *most recently installed* copy of that tag in its set.  An
  install clears any older copy's entry and an evict or invalidate
  clears its own, and the LLC's probe scans ``mapped``, not ``tags``,
  so a stale duplicate left by a restricted probe stays invisible (and
  is written back when it is evicted, if dirty).  L1 paths probe every
  way, never leave a duplicate, scan ``tags`` and leave ``mapped`` alone.

Per-core occupancy is tracked **incrementally** in ``core_occupancy``
(every install, invalidation and ownership transfer; the simulator's
inlined fill paths maintain the same counters), so
:meth:`occupancy_by_core` is an O(cores) read.  There are no per-set
objects: the per-set operations (:meth:`SetAssociativeCache.find`,
``touch``, ``victim``, ``install``) take the set index.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

from repro.cache.geometry import CacheGeometry

#: Sentinel way index meaning "not found".
NO_WAY = -1

#: Sentinel tag meaning "invalid line" (real tags are non-negative).
NO_TAG = -1

#: Owner value meaning "no core owns this line".  The paper tracks the
#: owner with "an extra two bits added to each tag entry to distinguish
#: data belonging to each core" (Section 2.5).
NO_OWNER = -1


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache probe-and-fill operation.

    Attributes
    ----------
    hit:
        Whether the probe found the line among the searched ways.
    way:
        The way that now holds the line (the hit way, or the fill way).
    set_index:
        Set the line maps to.
    evicted_tag:
        Tag of the line displaced by a fill, or ``None`` for hits or
        fills into invalid ways.
    evicted_dirty:
        Whether the displaced line needed a writeback.
    evicted_owner:
        Owner core of the displaced line (meaningful when a writeback
        must be attributed, e.g. UCP flush accounting in Figure 16).
    """

    hit: bool
    way: int
    set_index: int
    evicted_tag: int | None = None
    evicted_dirty: bool = False
    evicted_owner: int = -1


class SetAssociativeCache:
    """Flat line-state columns plus address decomposition helpers."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        ways = geometry.ways
        lines = geometry.num_sets * ways
        self.tags = array("q", [NO_TAG]) * lines
        self.mapped = array("q", [NO_TAG]) * lines
        self.owner = array("q", [NO_OWNER]) * lines
        self.dirty = array("B", bytes(lines))
        # Initial recency matches the historical stack [0, 1, .., w-1]
        # (way 0 most recent) in every set; stamps stay unique within
        # a set because the clock only moves forward and starts past them.
        self.stamp = array("q", range(ways, 0, -1)) * geometry.num_sets
        #: the recency counter every set of this cache stamps from
        self.clock = array("q", [ways + 1])
        #: valid lines per owning core, maintained incrementally;
        #: grown on demand (owner ids are small non-negative ints)
        self.core_occupancy = array("q")

    def ensure_cores(self, n_cores: int) -> array:
        """Grow (never shrink) the occupancy counters to ``n_cores``.

        Returns the counter array itself so hot paths can bind it to a
        local once instead of re-reading the attribute per access.
        Growing may move the array's buffer, so a run sizes it before
        the compiled kernel takes its address.
        """
        counters = self.core_occupancy
        if len(counters) < n_cores:
            counters.extend([0] * (n_cores - len(counters)))
        return counters

    # ------------------------------------------------------------------
    # Per-set operations (``way`` is relative to its set)
    # ------------------------------------------------------------------
    def find(self, set_index: int, tag: int, ways: tuple[int, ...] | None = None) -> int:
        """The way of ``set_index`` holding ``tag`` among ``ways`` (all
        if None), or :data:`NO_WAY`.  A scan of ``tags``: the LLC's
        inner loop scans ``mapped`` with way masks instead."""
        width = self.geometry.ways
        base = set_index * width
        tags = self.tags[base:base + width]
        if ways is None:
            return tags.index(tag) if tag in tags else NO_WAY
        for way in ways:
            if tags[way] == tag:
                return way
        return NO_WAY

    def touch(self, set_index: int, way: int) -> None:
        """Promote a line to MRU."""
        clock = self.clock
        self.stamp[set_index * self.geometry.ways + way] = clock[0]
        clock[0] += 1

    def victim(self, set_index: int, ways: tuple[int, ...] | None = None) -> int:
        """LRU victim of ``set_index`` among ``ways`` (all if None).

        Invalid ways are returned first (fill before evict); otherwise
        the least recently used permitted way is chosen.
        """
        width = self.geometry.ways
        base = set_index * width
        tags = self.tags[base:base + width]
        if NO_TAG in tags:
            if ways is None:
                return tags.index(NO_TAG)
            for way in ways:
                if tags[way] == NO_TAG:
                    return way
        stamp = self.stamp[base:base + width]
        if ways is None:
            return stamp.index(min(stamp))
        if not ways:
            raise ValueError("victim() called with an empty way set")
        return min(ways, key=stamp.__getitem__)

    def install(self, set_index: int, way: int, tag: int, owner: int, dirty: bool) -> None:
        """Put a new line in (set, way) and make it MRU; the one older
        mapped copy of ``tag`` in the set, if any, is unmapped.  Leaves
        the occupancy counters alone (see :meth:`fill`)."""
        width = self.geometry.ways
        base = set_index * width
        mapped = self.mapped
        older = mapped[base:base + width]
        if tag in older:
            mapped[base + older.index(tag)] = NO_TAG
        slot = base + way
        self.tags[slot] = tag
        mapped[slot] = tag
        self.dirty[slot] = 1 if dirty else 0
        self.owner[slot] = owner
        clock = self.clock
        self.stamp[slot] = clock[0]
        clock[0] += 1

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(
        self, line_address: int, ways: tuple[int, ...] | None = None
    ) -> tuple[bool, int, int]:
        """Look up ``line_address`` among ``ways``.

        Returns ``(hit, way, set_index)``; ``way`` is :data:`NO_WAY`
        on a miss.  Does not update recency — callers decide whether a
        probe counts as a use (:meth:`touch`).
        """
        geometry = self.geometry
        set_index = line_address & geometry.set_mask
        way = self.find(set_index, line_address >> geometry.set_shift, ways)
        return way != NO_WAY, way, set_index

    # ------------------------------------------------------------------
    # Filling
    # ------------------------------------------------------------------
    def fill(
        self,
        line_address: int,
        core: int,
        is_write: bool,
        victim_way: int,
    ) -> AccessResult:
        """Install ``line_address`` into ``victim_way`` of its set.

        The caller has already chosen the victim (via a
        :class:`~repro.cache.replacement.VictimSelector`), so this just
        records the eviction and installs the new line.
        """
        geometry = self.geometry
        set_index = line_address & geometry.set_mask
        slot = set_index * geometry.ways + victim_way
        evicted_tag = self.tags[slot]
        evicted = evicted_tag != NO_TAG
        evicted_dirty = bool(self.dirty[slot]) if evicted else False
        evicted_owner = self.owner[slot] if evicted else -1
        counters = self.ensure_cores(max(core, evicted_owner) + 1)
        if evicted and evicted_owner >= 0:
            counters[evicted_owner] -= 1
        counters[core] += 1
        self.install(set_index, victim_way, line_address >> geometry.set_shift,
                     core, is_write)
        return AccessResult(
            hit=False,
            way=victim_way,
            set_index=set_index,
            evicted_tag=evicted_tag if evicted else None,
            evicted_dirty=evicted_dirty,
            evicted_owner=evicted_owner,
        )

    # ------------------------------------------------------------------
    # Flush / invalidate / ownership
    # ------------------------------------------------------------------
    def flush_way_in_set(self, set_index: int, way: int) -> int | None:
        """Write back the line in (set, way) if dirty.

        Returns the flushed line address (for memory-bandwidth
        accounting) or ``None`` if the line was clean or invalid.  The
        line stays valid — cooperative takeover flushes data early but
        keeps it readable until ownership transfers.
        """
        slot = set_index * self.geometry.ways + way
        tag = self.tags[slot]
        if tag == NO_TAG or not self.dirty[slot]:
            return None
        self.dirty[slot] = 0
        return self.geometry.rebuild_line_address(tag, set_index)

    def _dirty_lines(self, way: int) -> list[int]:
        """Addresses of the valid dirty lines in ``way``, in set order."""
        width = self.geometry.ways
        tags = self.tags[way::width]
        shift = self.geometry.set_shift
        return [
            (tags[set_index] << shift) | set_index
            for set_index in compress(range(len(tags)), self.dirty[way::width])
            if tags[set_index] != NO_TAG
        ]

    def invalidate_way(self, way: int) -> list[int]:
        """Invalidate ``way`` across every set, returning dirty line addresses.

        Used when a way is power-gated (gated-Vdd is non-state-
        preserving) and by Dynamic CPE's immediate flush.  The returned
        addresses must be written back by the caller *before* the
        invalidation takes effect architecturally; we return them for
        bandwidth/energy accounting.
        """
        flushed = self._dirty_lines(way)
        width = self.geometry.ways
        counters = self.core_occupancy
        owners = self.owner[way::width]
        for core in range(len(counters)):
            counters[core] -= owners.count(core)
        invalid = array("q", [NO_TAG]) * self.geometry.num_sets
        self.tags[way::width] = invalid
        self.mapped[way::width] = invalid
        self.owner[way::width] = invalid
        self.dirty[way::width] = array("B", bytes(self.geometry.num_sets))
        return flushed

    def transfer_ownership(self, set_index: int, way: int, owner: int) -> None:
        """Reassign a valid line's owner, keeping the counters exact."""
        slot = set_index * self.geometry.ways + way
        if self.tags[slot] == NO_TAG:
            return
        previous = self.owner[slot]
        counters = self.ensure_cores(max(owner, previous) + 1)
        if previous >= 0:
            counters[previous] -= 1
        if owner >= 0:
            counters[owner] += 1
        self.owner[slot] = owner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy_by_core(self, n_cores: int) -> list[int]:
        """Total valid lines per core — an O(cores) counter read."""
        counters = self.core_occupancy
        return [counters[core] if core < len(counters) else 0
                for core in range(n_cores)]

    def lru(self, set_index: int) -> list[int]:
        """The ways of ``set_index``, most recently used first."""
        width = self.geometry.ways
        stamp = self.stamp[set_index * width:(set_index + 1) * width]
        return sorted(range(width), key=stamp.__getitem__, reverse=True)

    def valid_line_count(self) -> int:
        """Number of valid lines in the cache."""
        return len(self.tags) - self.tags.count(NO_TAG)
