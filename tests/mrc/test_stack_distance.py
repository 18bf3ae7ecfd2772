"""Exact stack-distance profiler tests, verified against a brute-force
reference implementation and a reference LRU simulation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PredictionError
from repro.mrc.stack_distance import (
    COLD,
    MultiCapacityLRU,
    StackDistanceProfiler,
    stack_distances,
)


def brute_force_stack_distance(stream):
    """O(n^2) reference: distinct lines between consecutive uses."""
    out = []
    last = {}
    for i, line in enumerate(stream):
        if line not in last:
            out.append(COLD)
        else:
            out.append(len(set(stream[last[line] + 1 : i])))
        last[line] = i
    return out


def reference_lru_misses(stream, capacity):
    lru = []
    misses = 0
    for line in stream:
        if line in lru:
            lru.remove(line)
        else:
            misses += 1
            if len(lru) >= capacity:
                lru.pop(0)
        lru.append(line)
    return misses


class TestStackDistances:
    def test_textbook_example(self):
        distances = stack_distances([1, 2, 3, 2, 1, 1])
        assert distances.tolist() == [COLD, COLD, COLD, 1, 2, 0]
        p = StackDistanceProfiler()
        p.consume([1, 2, 3, 2, 1, 1])
        assert p.cold_misses == 3
        assert p.histogram() == {0: 1, 1: 1, 2: 1}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), max_size=120))
    def test_matches_brute_force(self, stream):
        got = stack_distances(stream).tolist()
        assert got == brute_force_stack_distance(stream)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=150),
        st.integers(min_value=1, max_value=12),
    )
    def test_miss_counts_match_lru(self, stream, capacity):
        """The single-pass histogram reproduces any LRU cache's misses."""
        p = StackDistanceProfiler()
        p.consume(stream)
        assert p.misses_at(capacity) == reference_lru_misses(stream, capacity)

    def test_miss_curve_monotone_nonincreasing(self):
        p = StackDistanceProfiler()
        p.consume([i % 7 for i in range(100)] + list(range(50, 80)))
        curve = p.miss_curve([1, 2, 4, 8, 16, 32])
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_distinct_lines(self):
        p = StackDistanceProfiler()
        p.consume([5, 6, 5, 7])
        assert p.distinct_lines == 3

    def test_miss_ratio(self):
        p = StackDistanceProfiler()
        p.consume([1, 1, 1, 1])
        assert p.miss_ratio_at(4) == pytest.approx(0.25)
        assert StackDistanceProfiler().miss_ratio_at(4) == 0.0

    def test_negative_capacity_rejected(self):
        p = StackDistanceProfiler()
        p.access(1)
        with pytest.raises(PredictionError):
            p.misses_at(-1)


class TestEdgeCases:
    def test_empty_stream(self):
        assert stack_distances([]).tolist() == []
        p = StackDistanceProfiler()
        assert p.histogram() == {}
        assert p.cold_misses == 0
        assert p.miss_curve([1, 8]) == [0, 0]

    def test_single_line_repeated(self):
        assert stack_distances([9] * 50).tolist() == [COLD] + [0] * 49
        p = StackDistanceProfiler()
        p.consume([9] * 50)
        assert p.histogram() == {0: 49}
        assert p.miss_curve([0, 1]) == [50, 1]

    def test_all_distinct(self):
        # A streaming (res50-like) pass: every access is cold.
        lines = list(range(1000, 0, -3))
        assert stack_distances(lines).tolist() == [COLD] * len(lines)
        p = StackDistanceProfiler()
        p.consume(lines)
        assert p.histogram() == {}
        assert p.misses_at(10**6) == len(lines) == p.distinct_lines

    @pytest.mark.parametrize("k", range(1, 8))
    def test_merge_level_boundaries(self, k):
        """Streams and reuse-pair counts of 2^k - 1, 2^k and 2^k + 1."""
        rng = random.Random(k)
        for size in (2**k - 1, 2**k, 2**k + 1):
            stream = [rng.randrange(4 + k) for __ in range(size)]
            assert stack_distances(stream).tolist() == brute_force_stack_distance(stream)
            # The merge runs over reuse pairs: end on exactly `size` of them.
            stream = [rng.randrange(4 + k)]
            while len(stream) - len(set(stream)) < size:
                stream.append(rng.randrange(4 + k))
            assert stack_distances(stream).tolist() == brute_force_stack_distance(stream)


class TestLazyResolution:
    def test_cold_misses_before_histogram(self):
        p = StackDistanceProfiler()
        p.consume([4, 5, 4, 6, 5])
        assert p.cold_misses == 3
        assert p.distinct_lines == 3
        assert p.histogram() == {1: 1, 2: 1}

    def test_accesses_after_a_read_resolve_again(self):
        p = StackDistanceProfiler()
        p.consume([1, 2, 1])
        assert p.histogram() == {1: 1}
        assert p.cold_misses == 2
        p.consume([3, 2])
        p.access(1)
        assert p.accesses == 6
        assert p.cold_misses == 3
        assert p.histogram() == {1: 1, 2: 2}
        assert p.misses_at(2) == 5


class TestMultiCapacityLRU:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=150))
    def test_agrees_with_stack_distance(self, stream):
        capacities = [1, 3, 8]
        fast = MultiCapacityLRU(capacities)
        fast.consume(stream)
        exact = StackDistanceProfiler()
        exact.consume(stream)
        assert fast.miss_curve(capacities) == exact.miss_curve(capacities)

    def test_validation(self):
        with pytest.raises(PredictionError):
            MultiCapacityLRU([])
        with pytest.raises(PredictionError):
            MultiCapacityLRU([0])
        lru = MultiCapacityLRU([2, 4])
        with pytest.raises(PredictionError):
            lru.miss_curve([2])
