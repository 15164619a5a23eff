"""Unit tests for the L1/LLC hierarchy plumbing."""

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy, LLCOutcome


class _StubPolicy:
    """Records LLC accesses and returns scripted outcomes."""

    def __init__(self):
        self.calls = []
        self.hit = False

    def access(self, core, line_address, is_write, now):
        self.calls.append((core, line_address, is_write, now))
        return LLCOutcome(hit=self.hit, ways_probed=8, memory_latency=0 if self.hit else 400)


def _hierarchy(n_cores=2):
    policy = _StubPolicy()
    hierarchy = CacheHierarchy(
        n_cores=n_cores,
        l1_geometry=CacheGeometry(1024, 64, 2),  # 8 sets, 16 lines
        l1_latency=2,
        l2_latency=15,
        llc_policy=policy,
    )
    return hierarchy, policy


class TestL1Behaviour:
    def test_l1_hit_never_reaches_llc(self):
        hierarchy, policy = _hierarchy()
        hierarchy.access(0, 100, False, 0)
        assert len(policy.calls) == 1
        result = hierarchy.access(0, 100, False, 10)
        assert result.l1_hit
        assert result.latency == 2
        assert len(policy.calls) == 1
        assert hierarchy.l1_hits[0] == 1

    def test_l1_miss_latency_stacks(self):
        hierarchy, policy = _hierarchy()
        policy.hit = True
        result = hierarchy.access(0, 100, False, 0)
        assert not result.l1_hit
        assert result.llc_hit is True
        assert result.latency == 2 + 15

    def test_llc_miss_adds_memory_latency(self):
        hierarchy, policy = _hierarchy()
        result = hierarchy.access(0, 100, False, 0)
        assert result.latency == 2 + 15 + 400

    def test_private_l1s(self):
        hierarchy, policy = _hierarchy()
        hierarchy.access(0, 100, False, 0)
        hierarchy.access(1, 100, False, 0)
        assert list(hierarchy.l1_misses) == [1, 1]  # no sharing between L1s


class TestWritebackPath:
    def test_dirty_eviction_writes_through_llc(self):
        hierarchy, policy = _hierarchy()
        geometry = hierarchy.l1[0].geometry
        # Write a line, then evict it by filling its set with 2 more
        # lines (2-way L1).
        base = 100
        hierarchy.access(0, base, True, 0)
        conflicting = [
            geometry.rebuild_line_address(geometry.tag(base) + k, geometry.set_index(base))
            for k in (1, 2)
        ]
        hierarchy.access(0, conflicting[0], False, 1)
        hierarchy.access(0, conflicting[1], False, 2)
        writebacks = [call for call in policy.calls if call[2]]
        assert len(writebacks) == 1
        assert writebacks[0][1] == base
        assert hierarchy.l1_writebacks[0] == 1

    def test_clean_eviction_is_silent(self):
        hierarchy, policy = _hierarchy()
        geometry = hierarchy.l1[0].geometry
        base = 100
        hierarchy.access(0, base, False, 0)
        for k in (1, 2):
            conflicting = geometry.rebuild_line_address(
                geometry.tag(base) + k, geometry.set_index(base)
            )
            hierarchy.access(0, conflicting, False, k)
        writebacks = [call for call in policy.calls if call[2]]
        assert not writebacks
