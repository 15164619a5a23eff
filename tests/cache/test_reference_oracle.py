"""The flat-column cache against a naive reference model.

``Oracle`` is a dict of per-set lists written from the definitions
alone: each set holds ``None`` or a line dict per way, an explicit
most-recently-used-first recency list and a ``newest`` map from tag to
the way holding the most recently installed copy.  It shares no code
with :mod:`repro.cache.set_associative`.  Random sequences of accesses,
fills, whole-way invalidations and flushes and ownership transfers run
on both, and every outcome and the whole line state must agree after
every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.set_associative import SetAssociativeCache

GEOMETRY = CacheGeometry(64 * 4 * 4, 64, 4)  # 4 sets, 4 ways
SETS = GEOMETRY.num_sets
WAYS = GEOMETRY.ways
CORES = 3


class Oracle:
    def __init__(self) -> None:
        self.sets = {
            index: {
                "lines": [None] * WAYS,
                "lru": list(range(WAYS)),  # way 0 starts most recent
                "newest": {},
            }
            for index in range(SETS)
        }

    def _use(self, index, way):
        lru = self.sets[index]["lru"]
        lru.remove(way)
        lru.insert(0, way)

    def _drop(self, index, way):
        """Empty ``way``; returns the line that was there (or None)."""
        entry = self.sets[index]
        line = entry["lines"][way]
        if line is not None and entry["newest"].get(line["tag"]) == way:
            del entry["newest"][line["tag"]]
        entry["lines"][way] = None
        return line

    def find(self, index, tag, ways):
        lines = self.sets[index]["lines"]
        for way in range(WAYS) if ways is None else ways:
            if lines[way] is not None and lines[way]["tag"] == tag:
                return way
        return -1

    def victim(self, index, ways):
        entry = self.sets[index]
        candidates = list(range(WAYS)) if ways is None else list(ways)
        for way in candidates:
            if entry["lines"][way] is None:
                return way
        for way in reversed(entry["lru"]):
            if way in candidates:
                return way
        raise ValueError("no candidate way")

    def fill(self, index, way, tag, owner, dirty):
        """Install a line; returns the evicted (tag, dirty, owner)."""
        old = self._drop(index, way)
        entry = self.sets[index]
        entry["lines"][way] = {"tag": tag, "dirty": dirty, "owner": owner}
        entry["newest"][tag] = way
        self._use(index, way)
        if old is None:
            return None, False, -1
        return old["tag"], old["dirty"], old["owner"]

    def address(self, index, tag):
        return tag * SETS + index

    def invalidate_way(self, way):
        flushed = []
        for index in range(SETS):
            line = self._drop(index, way)
            if line is not None and line["dirty"]:
                flushed.append(self.address(index, line["tag"]))
        return flushed

    def occupancy(self):
        counts = [0] * CORES
        for entry in self.sets.values():
            for line in entry["lines"]:
                if line is not None and 0 <= line["owner"] < CORES:
                    counts[line["owner"]] += 1
        return counts

    def valid_lines(self):
        return sum(
            line is not None
            for entry in self.sets.values()
            for line in entry["lines"]
        )


def _columns(cache: SetAssociativeCache) -> tuple:
    return cache.tags, cache.mapped, cache.owner, cache.dirty, cache.stamp


def _assert_same_state(cache: SetAssociativeCache, oracle: Oracle) -> None:
    for index, entry in oracle.sets.items():
        base = index * WAYS
        for way, line in enumerate(entry["lines"]):
            slot = base + way
            if line is None:
                assert cache.tags[slot] == -1
                assert cache.owner[slot] == -1
                assert cache.dirty[slot] == 0
            else:
                assert cache.tags[slot] == line["tag"]
                assert cache.owner[slot] == line["owner"]
                assert cache.dirty[slot] == int(line["dirty"])
            newest = line is not None and entry["newest"].get(line["tag"]) == way
            assert cache.mapped[slot] == (line["tag"] if newest else -1)
        stamps = cache.stamp[base:base + WAYS]
        assert sorted(range(WAYS), key=stamps.__getitem__, reverse=True) == entry["lru"]
    assert cache.occupancy_by_core(CORES) == oracle.occupancy()
    assert cache.valid_line_count() == oracle.valid_lines()


_SET = st.integers(0, SETS - 1)
_WAY = st.integers(0, WAYS - 1)
_TAG = st.integers(0, 5)  # few tags, so duplicates and hits are common
_CORE = st.integers(0, CORES - 1)
_WAYSET = st.one_of(
    st.none(), st.lists(_WAY, min_size=1, max_size=WAYS, unique=True).map(tuple)
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), _SET, _TAG, _CORE, st.booleans(), _WAYSET, _WAYSET),
        st.tuples(st.just("fill"), _SET, _TAG, _CORE, st.booleans(), _WAY),
        st.tuples(st.just("invalidate_way"), _WAY),
        st.tuples(st.just("flush_way_in_set"), _SET, _WAY),
        st.tuples(st.just("transfer_ownership"), _SET, _WAY, st.integers(-1, CORES - 1)),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_flat_cache_matches_the_reference_oracle(ops):
    cache = SetAssociativeCache(GEOMETRY)
    cache.ensure_cores(CORES)
    oracle = Oracle()
    for op, *args in ops:
        if op == "access":
            index, tag, core, is_write, probe, fill = args
            address = oracle.address(index, tag)
            hit, way, set_index = cache.probe(address, probe)
            assert set_index == index
            expected = oracle.find(index, tag, probe)
            assert (hit, way) == (expected >= 0, expected)
            if hit:
                cache.touch(index, way)
                oracle._use(index, way)
                if is_write:
                    cache.dirty[index * WAYS + way] = 1
                    oracle.sets[index]["lines"][way]["dirty"] = True
            else:
                victim = cache.victim(index, fill)
                assert victim == oracle.victim(index, fill)
                result = cache.fill(address, core, is_write, victim)
                evicted = oracle.fill(index, victim, tag, core, is_write)
                assert (
                    result.evicted_tag, result.evicted_dirty, result.evicted_owner
                ) == evicted
        elif op == "fill":
            index, tag, core, is_write, way = args
            result = cache.fill(oracle.address(index, tag), core, is_write, way)
            evicted = oracle.fill(index, way, tag, core, is_write)
            assert (
                result.evicted_tag, result.evicted_dirty, result.evicted_owner
            ) == evicted
        elif op == "invalidate_way":
            (way,) = args
            before = _columns(cache)
            assert cache.invalidate_way(way) == oracle.invalidate_way(way)
            # the columns are mutated in place, never rebound or resized
            after = _columns(cache)
            assert all(now is then for now, then in zip(after, before))
            assert [len(column) for column in after] == [SETS * WAYS] * 5
        elif op == "flush_way_in_set":
            index, way = args
            expected = None
            line = oracle.sets[index]["lines"][way]
            if line is not None and line["dirty"]:
                line["dirty"] = False
                expected = oracle.address(index, line["tag"])
            assert cache.flush_way_in_set(index, way) == expected
        else:
            index, way, owner = args
            cache.transfer_ownership(index, way, owner)
            line = oracle.sets[index]["lines"][way]
            if line is not None:
                line["owner"] = owner
        _assert_same_state(cache, oracle)


def test_stale_duplicate_stays_unmapped_after_the_newest_copy_goes():
    """The mapped rule in one fixed sequence: a second copy of a tag
    takes the mapping; dropping it leaves the older copy unmapped."""
    cache = SetAssociativeCache(GEOMETRY)
    oracle = Oracle()
    for way in (0, 1):
        cache.fill(oracle.address(2, 7), 0, way == 0, way)
        oracle.fill(2, way, 7, 0, way == 0)
    assert list(cache.mapped[2 * WAYS:3 * WAYS]) == [-1, 7, -1, -1]
    assert cache.invalidate_way(1) == oracle.invalidate_way(1) == []
    assert 7 not in cache.mapped
    assert cache.tags[2 * WAYS] == 7
    _assert_same_state(cache, oracle)
