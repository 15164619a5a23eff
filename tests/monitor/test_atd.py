"""Unit and property tests for the auxiliary tag directory."""

from hypothesis import given
from hypothesis import strategies as st

from repro.monitor.atd import AuxiliaryTagDirectory


class TestRecording:
    def test_first_access_misses(self):
        atd = AuxiliaryTagDirectory(4, [0])
        assert atd.record(0, tag=1) == -1
        assert atd.misses == 1

    def test_immediate_reuse_hits_mru(self):
        atd = AuxiliaryTagDirectory(4, [0])
        atd.record(0, tag=1)
        assert atd.record(0, tag=1) == 0
        assert atd.position_hits[0] == 1

    def test_stack_position_tracks_intervening_tags(self):
        atd = AuxiliaryTagDirectory(4, [0])
        atd.record(0, tag=1)
        atd.record(0, tag=2)
        atd.record(0, tag=3)
        assert atd.record(0, tag=1) == 2  # two distinct tags since

    def test_capacity_eviction(self):
        atd = AuxiliaryTagDirectory(2, [0])
        atd.record(0, tag=1)
        atd.record(0, tag=2)
        atd.record(0, tag=3)  # evicts tag 1
        assert atd.record(0, tag=1) == -1

    def test_sets_are_independent(self):
        atd = AuxiliaryTagDirectory(4, [0, 1])
        atd.record(0, tag=1)
        assert atd.record(1, tag=1) == -1


class TestDecay:
    def test_halving(self):
        atd = AuxiliaryTagDirectory(2, [0])
        atd.position_hits = [10, 4]
        atd.misses = 7
        atd.accesses = 21
        atd.decay(0.5)
        assert atd.position_hits == [5, 2]
        assert atd.misses == 3
        assert atd.accesses == 10

    def test_reset(self):
        atd = AuxiliaryTagDirectory(2, [0])
        atd.position_hits = [10, 4]
        atd.decay(0.0)
        assert atd.position_hits == [0, 0]


@given(st.lists(st.integers(0, 12), min_size=1, max_size=300))
def test_mattson_inclusion(tags):
    """hits_for_ways is monotonically non-decreasing in ways —
    the stack property every UMON miss curve rests on."""
    atd = AuxiliaryTagDirectory(8, [0])
    for tag in tags:
        atd.record(0, tag)
    previous = 0
    for ways in range(1, 9):
        hits = atd.hits_for_ways(ways)
        assert hits >= previous
        previous = hits
    assert atd.accesses == len(tags)
    assert atd.hits_for_ways(8) + atd.misses == atd.accesses


@given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
def test_atd_matches_fully_associative_lru_simulation(tags):
    """The ATD's hit count at full associativity equals a direct
    fully-associative LRU simulation of the same stream."""
    ways = 4
    atd = AuxiliaryTagDirectory(ways, [0])
    stack: list[int] = []
    expected_hits = 0
    for tag in tags:
        atd.record(0, tag)
        if tag in stack:
            position = stack.index(tag)
            if position < ways:
                expected_hits += 1
            stack.remove(tag)
        stack.insert(0, tag)
        del stack[ways:]
    assert atd.hits_for_ways(ways) == expected_hits


class _DictOfListsATD:
    """The ATD's former layout — one Python list per sampled set in a
    dict — kept as the oracle for the flat stack arrays."""

    def __init__(self, ways: int, sampled_set_indices: list[int]) -> None:
        self.ways = ways
        self.stacks: dict[int, list[int]] = {s: [] for s in sampled_set_indices}
        self.position_hits = [0] * ways
        self.misses = 0
        self.accesses = 0

    def record(self, set_index: int, tag: int) -> int:
        stack = self.stacks[set_index]
        self.accesses += 1
        if tag not in stack:
            self.misses += 1
            stack.insert(0, tag)
            if len(stack) > self.ways:
                stack.pop()
            return -1
        position = stack.index(tag)
        del stack[position]
        stack.insert(0, tag)
        self.position_hits[position] += 1
        return position


@given(
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)), max_size=400),
)
def test_flat_stacks_match_the_dict_of_lists_oracle(ways, stream):
    """Random streams over several sampled sets — with more distinct
    tags per set than ways — give the same return values, counters
    and stacks in both layouts."""
    sampled = [1, 5, 9, 13]
    flat = AuxiliaryTagDirectory(ways, sampled)
    oracle = _DictOfListsATD(ways, sampled)
    for slot, tag in stream:
        set_index = sampled[slot]
        assert flat.record(set_index, tag) == oracle.record(set_index, tag)
    assert flat.position_hits == oracle.position_hits
    assert flat.misses == oracle.misses
    assert flat.accesses == oracle.accesses
    for slot, set_index in enumerate(sampled):
        base = slot * ways
        depth = flat.depth[slot]
        assert list(flat.stack[base:base + depth]) == oracle.stacks[set_index]
