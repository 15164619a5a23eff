"""The shared cache-state format: the ``mapped`` lookup column and the
per-cache recency clock.

Restricted (RAP) probes can leave a second copy of a tag in a way its
owner no longer probes.  Only the most recently installed copy is
mapped, so the stale copy stays invisible to every later probe until
it is evicted — and then it is written back if it is dirty.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cache_set import NO_TAG, CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import SetAssociativeCache
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.partitioning.base import PolicyStats
from repro.partitioning.unmanaged import UnmanagedPolicy

GEOMETRY = CacheGeometry(4 * 1024, 64, 8)  # 8 sets, 8 ways
SET = 3
TAG = 42
A, B = 0, 1


def _policy() -> UnmanagedPolicy:
    return UnmanagedPolicy(
        SetAssociativeCache(GEOMETRY),
        MainMemory(),
        EnergyAccounting(CactiEnergyModel(GEOMETRY, 1)),
        PolicyStats(1),
    )


def _address(tag: int) -> int:
    return GEOMETRY.rebuild_line_address(tag, SET)


def _duplicate(policy: UnmanagedPolicy) -> CacheSet:
    """Install ``TAG`` dirty at way A, then miss on it with probes and
    fills that exclude A, so a second copy lands at way B."""
    others = tuple(way for way in range(GEOMETRY.ways) if way != A)
    assert not policy.access(0, _address(TAG), True, 0).hit
    policy._set_core_ways(0, others, others)
    assert not policy.access(0, _address(TAG), False, 1).hit
    policy._set_core_ways(0, None, None)
    cset = policy.cache.sets[SET]
    assert cset.tags[A] == cset.tags[B] == TAG
    assert cset.dirty[A] and not cset.dirty[B]
    return cset


def test_install_maps_only_the_newest_copy():
    cset = CacheSet(4)
    cset.install(A, TAG, owner=0, dirty=True)
    cset.install(B, TAG, owner=0, dirty=False)
    assert list(cset.mapped) == [NO_TAG, TAG, NO_TAG, NO_TAG]
    cset.invalidate(B)
    assert TAG not in cset.mapped
    assert cset.tags[A] == TAG


def test_full_width_probe_hits_the_newest_copy():
    policy = _policy()
    cset = _duplicate(policy)
    assert policy.access(0, _address(TAG), False, 2).hit
    assert cset.lru[0] == B


@pytest.mark.parametrize("drop", ["evict", "invalidate"])
def test_stale_copy_stays_invisible_and_writes_back(drop):
    policy = _policy()
    cset = _duplicate(policy)
    if drop == "evict":
        policy._set_core_ways(0, None, (B,))
        policy.access(0, _address(TAG + 1), False, 2)
        policy._set_core_ways(0, None, None)
    else:
        policy.cache.invalidate_way(B)
    assert cset.tags[B] != TAG
    assert cset.tags[A] == TAG

    # A still holds the tag, but it is not the mapped copy.
    assert not policy.access(0, _address(TAG), False, 3).hit
    assert cset.tags.count(TAG) == 2

    writebacks = policy.memory.writebacks
    policy._set_core_ways(0, None, (A,))
    policy.access(0, _address(TAG + 2), False, 4)
    assert cset.tags[A] == TAG + 2
    assert policy.memory.writebacks == writebacks + 1


def test_sets_of_one_cache_share_one_clock():
    cache = SetAssociativeCache(GEOMETRY)
    assert all(cset.clock is cache.clock for cset in cache.sets)
    assert CacheSet(4).clock is not CacheSet(4).clock


_OPS = st.lists(
    st.tuples(
        st.integers(0, GEOMETRY.num_sets - 1),
        st.integers(0, GEOMETRY.ways - 1),
        st.booleans(),
    ),
    max_size=200,
)


@given(_OPS)
def test_shared_clock_orders_each_set_like_a_private_clock(ops):
    """Interleaved touches and fills across sets leave every set's
    recency order, and so every victim, as per-set clocks would."""
    cache = SetAssociativeCache(GEOMETRY)
    private = [CacheSet(GEOMETRY.ways) for _ in range(GEOMETRY.num_sets)]
    for tag, (set_index, way, fill) in enumerate(ops):
        for cset in (cache.sets[set_index], private[set_index]):
            if fill:
                cset.install(way, tag, owner=0, dirty=False)
            else:
                cset.touch(way)
    for shared, alone in zip(cache.sets, private):
        assert shared.lru == alone.lru
        assert shared.victim() == alone.victim()
        assert shared.victim((1, 4, 6)) == alone.victim((1, 4, 6))
        assert [shared.stack_position(w) for w in range(GEOMETRY.ways)] == [
            alone.stack_position(w) for w in range(GEOMETRY.ways)
        ]
