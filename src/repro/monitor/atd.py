"""Auxiliary tag directory: per-core LRU tag stacks for sampled sets.

The ATD simulates, for one core, a cache with the LLC's full
associativity dedicated entirely to that core.  Each sampled set keeps
an LRU-ordered stack of tags; a hit at stack position ``p`` means the
access would have hit had the core owned at least ``p + 1`` ways
(Mattson's stack-inclusion property), so one counter per position is
all that is needed to recover the full miss curve.

The stacks live in one flat ``array('q')`` (``ways`` entries per
sampled set, MRU first) plus an ``array('q')`` of stack depths, which
the compiled kernel updates in place.  A set's slot is its position in
``sampled_set_indices``.
"""

from __future__ import annotations

from array import array


class AuxiliaryTagDirectory:
    """LRU tag stacks plus stack-position hit counters for one core."""

    def __init__(self, ways: int, sampled_set_indices: list[int]) -> None:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways
        #: map from real set index to its slot
        self._slots = {s: k for k, s in enumerate(sampled_set_indices)}
        n_slots = len(sampled_set_indices)
        #: slot ``k``'s stack is ``stack[k * ways:k * ways + depth[k]]``
        self.stack = array("q", bytes(8 * n_slots * ways))
        self.depth = array("q", bytes(8 * n_slots))
        #: hits seen at each LRU stack position (0 = MRU)
        self.position_hits = [0] * ways
        #: accesses that missed even with full associativity
        self.misses = 0
        #: total sampled accesses
        self.accesses = 0

    def record(self, set_index: int, tag: int) -> int:
        """Record an access; returns the hit position or -1 for a miss.

        The caller has already established that ``set_index`` is
        sampled (so the hot path pays the slot lookup only for
        monitored sets).
        """
        slot = self._slots[set_index]
        base = slot * self.ways
        depth = self.depth[slot]
        stack = self.stack
        current = stack[base:base + depth]
        self.accesses += 1
        if tag not in current:
            self.misses += 1
            if depth < self.ways:
                self.depth[slot] = depth + 1
                depth += 1
            stack[base + 1:base + depth] = current[:depth - 1]
            stack[base] = tag
            return -1
        position = current.index(tag)
        stack[base + 1:base + position + 1] = current[:position]
        stack[base] = tag
        self.position_hits[position] += 1
        return position

    def decay(self, factor: float = 0.5) -> None:
        """Exponentially age the counters at an epoch boundary.

        UCP periodically ages its counters so that partitioning tracks
        phase changes rather than whole-run averages; a factor of 0
        resets outright.
        """
        if not 0.0 <= factor < 1.0:
            raise ValueError(f"decay factor must be in [0, 1), got {factor}")
        self.position_hits = [int(h * factor) for h in self.position_hits]
        self.misses = int(self.misses * factor)
        self.accesses = int(self.accesses * factor)

    def hits_for_ways(self, ways: int) -> int:
        """Hits this core would see with ``ways`` ways (stack property)."""
        return sum(self.position_hits[:ways])
