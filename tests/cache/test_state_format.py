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

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_TAG, SetAssociativeCache
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.partitioning.base import PolicyStats
from repro.partitioning.unmanaged import UnmanagedPolicy

GEOMETRY = CacheGeometry(4 * 1024, 64, 8)  # 8 sets, 8 ways
SET = 3
TAG = 42
A, B = 0, 1
BASE = SET * GEOMETRY.ways


def _policy() -> UnmanagedPolicy:
    return UnmanagedPolicy(
        SetAssociativeCache(GEOMETRY),
        MainMemory(),
        EnergyAccounting(CactiEnergyModel(GEOMETRY, 1)),
        PolicyStats(1),
    )


def _address(tag: int) -> int:
    return GEOMETRY.rebuild_line_address(tag, SET)


def _one_set(ways: int) -> SetAssociativeCache:
    return SetAssociativeCache(CacheGeometry(64 * ways, 64, ways))


def _tags(policy: UnmanagedPolicy) -> list[int]:
    """The tags of set ``SET``, way by way."""
    return list(policy.cache.tags[BASE:BASE + GEOMETRY.ways])


def _duplicate(policy: UnmanagedPolicy) -> None:
    """Install ``TAG`` dirty at way A, then miss on it with probes and
    fills that exclude A, so a second copy lands at way B."""
    others = tuple(way for way in range(GEOMETRY.ways) if way != A)
    assert not policy.access(0, _address(TAG), True, 0).hit
    policy._set_core_ways(0, others, others)
    assert not policy.access(0, _address(TAG), False, 1).hit
    policy._set_core_ways(0, None, None)
    cache = policy.cache
    assert _tags(policy)[A] == _tags(policy)[B] == TAG
    assert cache.dirty[BASE + A] and not cache.dirty[BASE + B]


def test_install_maps_only_the_newest_copy():
    cache = _one_set(4)
    cache.install(0, A, TAG, owner=0, dirty=True)
    cache.install(0, B, TAG, owner=0, dirty=False)
    assert list(cache.mapped) == [NO_TAG, TAG, NO_TAG, NO_TAG]
    cache.invalidate_way(B)
    assert TAG not in cache.mapped
    assert cache.tags[A] == TAG


def test_full_width_probe_hits_the_newest_copy():
    policy = _policy()
    _duplicate(policy)
    assert policy.access(0, _address(TAG), False, 2).hit
    assert policy.cache.lru(SET)[0] == B


@pytest.mark.parametrize("drop", ["evict", "invalidate"])
def test_stale_copy_stays_invisible_and_writes_back(drop):
    policy = _policy()
    _duplicate(policy)
    if drop == "evict":
        policy._set_core_ways(0, None, (B,))
        policy.access(0, _address(TAG + 1), False, 2)
        policy._set_core_ways(0, None, None)
    else:
        policy.cache.invalidate_way(B)
    assert _tags(policy)[B] != TAG
    assert _tags(policy)[A] == TAG

    # A still holds the tag, but it is not the mapped copy.
    assert not policy.access(0, _address(TAG), False, 3).hit
    assert _tags(policy).count(TAG) == 2

    writebacks = policy.memory.writebacks
    policy._set_core_ways(0, None, (A,))
    policy.access(0, _address(TAG + 2), False, 4)
    assert _tags(policy)[A] == TAG + 2
    assert policy.memory.writebacks == writebacks + 1


def test_sets_of_one_cache_share_one_clock():
    cache = SetAssociativeCache(GEOMETRY)
    start = cache.clock[0]
    for set_index in range(GEOMETRY.num_sets):
        cache.touch(set_index, set_index % GEOMETRY.ways)
    stamps = [
        cache.stamp[set_index * GEOMETRY.ways + set_index % GEOMETRY.ways]
        for set_index in range(GEOMETRY.num_sets)
    ]
    assert stamps == list(range(start, start + GEOMETRY.num_sets))
    assert cache.clock[0] == start + GEOMETRY.num_sets


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
    private = [_one_set(GEOMETRY.ways) for _ in range(GEOMETRY.num_sets)]
    for tag, (set_index, way, fill) in enumerate(ops):
        for target, index in ((cache, set_index), (private[set_index], 0)):
            if fill:
                target.install(index, way, tag, owner=0, dirty=False)
            else:
                target.touch(index, way)
    for set_index, alone in enumerate(private):
        assert cache.lru(set_index) == alone.lru(0)
        assert cache.victim(set_index) == alone.victim(0)
        assert cache.victim(set_index, (1, 4, 6)) == alone.victim(0, (1, 4, 6))
