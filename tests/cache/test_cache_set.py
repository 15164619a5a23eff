"""Unit and property tests for the per-set operations of
SetAssociativeCache (LRU stack behaviour), on one-set caches."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.set_associative import NO_OWNER, NO_TAG, NO_WAY, SetAssociativeCache


def _one_set(ways: int) -> SetAssociativeCache:
    return SetAssociativeCache(CacheGeometry(64 * ways, 64, ways))


def _line(cache: SetAssociativeCache, way: int) -> tuple:
    """(tag, dirty, owner) of set 0's line in ``way``."""
    return cache.tags[way], cache.dirty[way], cache.owner[way]


class TestFind:
    def test_empty_set_misses(self):
        cache = _one_set(4)
        assert cache.find(0, 42) == NO_WAY

    def test_find_after_install(self):
        cache = _one_set(4)
        cache.install(0, 2, tag=42, owner=0, dirty=False)
        assert cache.find(0, 42) == 2

    def test_find_restricted_to_ways(self):
        cache = _one_set(4)
        cache.install(0, 2, tag=42, owner=0, dirty=False)
        assert cache.find(0, 42, ways=(0, 1)) == NO_WAY
        assert cache.find(0, 42, ways=(2, 3)) == 2

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            _one_set(0)


class TestVictim:
    def test_prefers_invalid_ways(self):
        cache = _one_set(4)
        cache.install(0, 0, tag=1, owner=0, dirty=False)
        assert cache.victim(0) in (1, 2, 3)

    def test_lru_victim_when_full(self):
        cache = _one_set(4)
        for way in range(4):
            cache.install(0, way, tag=way, owner=0, dirty=False)
        # Way 0 was installed first and never touched again.
        assert cache.victim(0) == 0

    def test_touch_changes_victim(self):
        cache = _one_set(4)
        for way in range(4):
            cache.install(0, way, tag=way, owner=0, dirty=False)
        cache.touch(0, 0)
        assert cache.victim(0) == 1

    def test_victim_respects_way_subset(self):
        cache = _one_set(4)
        for way in range(4):
            cache.install(0, way, tag=way, owner=0, dirty=False)
        assert cache.victim(0, ways=(2, 3)) == 2

    def test_victim_empty_subset_raises(self):
        cache = _one_set(2)
        cache.install(0, 0, tag=1, owner=0, dirty=False)
        cache.install(0, 1, tag=2, owner=0, dirty=False)
        with pytest.raises(ValueError):
            cache.victim(0, ways=())


class TestLineState:
    def test_install_sets_owner_and_dirty(self):
        cache = _one_set(2)
        cache.install(0, 1, tag=7, owner=3, dirty=True)
        assert _line(cache, 1) == (7, 1, 3)

    def test_invalidate_clears_state(self):
        cache = _one_set(2)
        cache.fill(cache.geometry.rebuild_line_address(7, 0), 1, True, 0)
        cache.invalidate_way(0)
        assert _line(cache, 0) == (NO_TAG, 0, NO_OWNER)
        assert cache.mapped[0] == NO_TAG

    def test_clean_clears_dirty_only(self):
        cache = _one_set(2)
        cache.install(0, 0, tag=7, owner=1, dirty=True)
        assert cache.flush_way_in_set(0, 0) is not None
        assert _line(cache, 0) == (7, 0, 1)

    def test_occupancy_counts_only_owner(self):
        cache = _one_set(4)
        for way, (tag, owner) in enumerate([(1, 0), (2, 0), (3, 1)]):
            cache.fill(cache.geometry.rebuild_line_address(tag, 0), owner, False, way)
        assert cache.occupancy_by_core(3) == [2, 1, 0]
        assert cache.valid_line_count() == 3
        assert [way for way in range(4) if cache.tags[way] != NO_TAG] == [0, 1, 2]


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
def test_lru_stack_property(tags):
    """A hit at stack position p would hit in any cache with > p ways.

    Simulate the same access stream against two set sizes; every hit
    in the smaller set must also hit in the larger (Mattson
    inclusion), which is the property UMON's miss curves rely on.
    """
    small, large = _one_set(2), _one_set(4)
    hits_small = hits_large = 0
    for tag in tags:
        for cache, is_small in ((small, True), (large, False)):
            way = cache.find(0, tag)
            if way != NO_WAY:
                cache.touch(0, way)
                if is_small:
                    hits_small += 1
                else:
                    hits_large += 1
            else:
                cache.install(0, cache.victim(0), tag, owner=0, dirty=False)
    assert hits_large >= hits_small


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=150))
def test_lru_order_is_a_permutation(accesses):
    """The recency stack always remains a permutation of the ways."""
    cache = _one_set(4)
    for tag, dirty in accesses:
        way = cache.find(0, tag)
        if way == NO_WAY:
            way = cache.victim(0)
            cache.install(0, way, tag, owner=0, dirty=dirty)
        else:
            cache.touch(0, way)
    assert sorted(cache.lru(0)) == [0, 1, 2, 3]
