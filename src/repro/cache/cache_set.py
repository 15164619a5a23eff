"""One cache set: parallel line-state arrays plus a stamp-based LRU.

The set is the unit every policy in the paper manipulates: lookups are
restricted to permitted ways (RAP registers), fills are restricted to
writable ways (WAP registers), and victim selection walks the recency
order filtered by those same way subsets.

Representation.  Every column is a flat ``array`` that the Python
engine mutates in place and the compiled kernel addresses directly
(one pointer per column, captured once per run), so there is one
format for line state and nothing to copy between engines:

* ``tags``/``owner`` are ``array('q')`` columns with a ``-1`` sentinel
  (:data:`NO_TAG`/``NO_OWNER``) instead of ``list[int | None]``;
* ``dirty`` is an ``array('B')`` of 0/1 flags;
* recency is a monotonically increasing **stamp** per way: a touch
  stores the cache's ``clock`` (a one-element ``array('q')`` shared by
  every set of one cache) and advances it, and the LRU victim is the
  minimum stamp among the candidate ways.  Stamps are only ever
  compared within one set, so a per-cache counter induces exactly the
  order a per-set counter would; a set built on its own gets its own
  counter;
* ``mapped`` is the LLC lookup column: ``mapped[way] == tag`` only
  while ``way`` holds the *most recently installed* copy of ``tag``.
  An install clears any older copy's entry and an evict or invalidate
  clears its own, and the LLC's probe scans ``mapped``, not ``tags``.
  Restricted probes can leave a stale duplicate of a tag in a way its
  owner no longer probes; that copy stays invisible to every later
  probe (and is written back when it is evicted, if dirty).  L1 paths
  probe every way and so never leave a duplicate: they scan ``tags``
  and leave ``mapped`` alone.

"Fill an invalid way first" needs no counter: callers gate the scan
with ``NO_TAG in tags``, which is false once the set is full.
"""

from __future__ import annotations

from array import array

from repro.cache.line import NO_OWNER, CacheLine

#: Sentinel way index meaning "not found".
NO_WAY = -1

#: Sentinel tag meaning "invalid line" (real tags are non-negative).
NO_TAG = -1

# One-element templates: repeating one is the cheapest way to build a
# column, and a run builds one CacheSet per set of every cache.
_INVALID = array("q", [NO_TAG])
_UNOWNED = array("q", [NO_OWNER])
_CLEAN = array("B", [0])


class CacheSet:
    """State of a single set in a set-associative cache."""

    __slots__ = ("ways", "tags", "mapped", "dirty", "owner", "stamp", "clock")

    def __init__(self, ways: int, clock: array | None = None) -> None:
        if ways <= 0:
            raise ValueError(f"a cache set needs at least one way, got {ways}")
        self.ways = ways
        self.tags = _INVALID * ways
        self.mapped = _INVALID * ways
        self.dirty = _CLEAN * ways
        self.owner = _UNOWNED * ways
        # Initial recency matches the historical stack [0, 1, .., w-1]
        # (way 0 most recent); stamps stay unique within the set
        # because the clock only moves forward and starts past them.
        self.stamp = array("q", range(ways, 0, -1))
        self.clock = array("q", [ways + 1]) if clock is None else clock

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, tag: int, ways: tuple[int, ...] | None = None) -> int:  # repro: hot
        """Return the way holding ``tag`` among ``ways`` (all if None).

        Returns :data:`NO_WAY` when the tag is absent from the searched
        ways.  Searching a subset models the RAP-restricted probes that
        give Cooperative Partitioning its dynamic-energy savings.  This
        is the general (scan-based) API; the LLC's inner loop scans
        ``mapped`` with precomputed membership masks instead.
        """
        tags = self.tags
        if ways is None:
            for way in range(self.ways):
                if tags[way] == tag:
                    return way
            return NO_WAY
        for way in ways:
            if tags[way] == tag:
                return way
        return NO_WAY

    def touch(self, way: int) -> None:
        """Make ``way`` the most recently used."""
        clock = self.clock
        self.stamp[way] = clock[0]
        clock[0] += 1

    def stack_position(self, way: int) -> int:
        """Recency position of ``way`` (0 = MRU)."""
        mine = self.stamp[way]
        return sum(1 for other in self.stamp if other > mine)

    @property
    def lru(self) -> list[int]:
        """Way indices ordered most-recently-used first (API/debugging;
        the hot paths compare stamps directly)."""
        order = sorted(range(self.ways), key=self.stamp.__getitem__)
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def victim(self, ways: tuple[int, ...] | None = None) -> int:  # repro: hot
        """LRU victim among ``ways`` (all ways if None).

        Invalid ways are returned first (fill before evict); otherwise
        the least recently used permitted way is chosen.
        """
        tags = self.tags
        stamp = self.stamp
        if ways is None:
            if NO_TAG in tags:
                return tags.index(NO_TAG)
            return stamp.index(min(stamp))
        if NO_TAG in tags:
            for way in ways:
                if tags[way] == NO_TAG:
                    return way
        best = NO_WAY
        best_stamp = 0
        for way in ways:
            s = stamp[way]
            if best < 0 or s < best_stamp:
                best = way
                best_stamp = s
        if best < 0:
            raise ValueError("victim() called with an empty way set")
        return best

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install(self, way: int, tag: int, owner: int, dirty: bool) -> None:
        """Fill ``way`` with a new line and make it MRU."""
        mapped = self.mapped
        if tag in mapped:
            mapped[mapped.index(tag)] = NO_TAG
        self.tags[way] = tag
        mapped[way] = tag
        self.dirty[way] = 1 if dirty else 0
        self.owner[way] = owner
        clock = self.clock
        self.stamp[way] = clock[0]
        clock[0] += 1

    def invalidate(self, way: int) -> None:
        """Drop the line in ``way`` (used by power-gating and CPE flushes)."""
        self.tags[way] = NO_TAG
        self.mapped[way] = NO_TAG
        self.dirty[way] = 0
        self.owner[way] = NO_OWNER

    def mark_dirty(self, way: int) -> None:
        """Record a write to the line in ``way``."""
        self.dirty[way] = 1

    def clean(self, way: int) -> None:
        """Clear the dirty bit after the line is flushed to memory."""
        self.dirty[way] = 0

    def set_owner(self, way: int, owner: int) -> None:
        """Reassign the per-line owner bits (cooperative takeover)."""
        self.owner[way] = owner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def line(self, way: int) -> CacheLine:
        """Read-only snapshot of the line in ``way``."""
        tag = self.tags[way]
        valid = tag != NO_TAG
        return CacheLine(
            tag=tag if valid else None,
            valid=valid,
            dirty=bool(self.dirty[way]),
            owner=self.owner[way],
        )

    def valid_ways(self) -> list[int]:
        """Ways currently holding valid lines."""
        tags = self.tags
        return [way for way in range(self.ways) if tags[way] != NO_TAG]

    def occupancy(self, core: int) -> int:
        """Number of valid lines in this set owned by ``core``."""
        tags = self.tags
        owner = self.owner
        count = 0
        for way in range(self.ways):
            if tags[way] != NO_TAG and owner[way] == core:
                count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(
            f"w{way}:{'-' if self.tags[way] == NO_TAG else self.tags[way]}"
            f"{'*' if self.dirty[way] else ''}@{self.owner[way]}"
            for way in range(self.ways)
        )
        return f"CacheSet({entries}; lru={self.lru})"
