"""StatStack approximation tests."""

import numpy as np
import pytest

from repro.exceptions import PredictionError
from repro.mrc.stack_distance import StackDistanceProfiler
from repro.mrc.statstack import (
    ReuseDistanceSampler,
    expected_unique,
    statstack_miss_ratios,
)


class TestReuseDistanceSampler:
    def test_forward_distances(self):
        s = ReuseDistanceSampler()
        s.consume([1, 2, 1, 1])
        # 1 reused after 1 intervening ref, then after 0.
        assert s.reuse_distances == [1, 0]
        assert s.cold_misses == 2
        assert s.accesses == 4

    def test_accesses_after_a_read_resolve_again(self):
        s = ReuseDistanceSampler()
        s.consume([1, 2, 1])
        assert s.reuse_distances == [1]
        s.access(2)
        s.access(3)
        assert s.reuse_distances == [1, 1]
        assert s.cold_misses == 3


class TestExpectedUnique:
    def test_no_reuse_means_every_ref_unique(self):
        # All reuse distances huge -> P(RD > d) = 1 -> unique(r) = r.
        rds = np.array([10**6] * 100)
        unique = expected_unique(rds, 10)
        assert unique[5] == pytest.approx(5.0)

    def test_immediate_reuse_means_one_line(self):
        rds = np.zeros(100, dtype=np.int64)
        unique = expected_unique(rds, 10)
        # P(RD > 0) = 0: a window adds no distinct lines beyond the first.
        assert unique[10] == pytest.approx(0.0)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        rds = rng.integers(0, 50, 500)
        unique = expected_unique(rds, 100)
        assert (np.diff(unique) >= -1e-12).all()

    def test_negative_window_rejected(self):
        with pytest.raises(PredictionError):
            expected_unique(np.array([1]), -1)


class TestStatstackMissRatios:
    def _cyclic_stream(self, ws, passes):
        return [i % ws for i in range(ws * passes)]

    def test_cyclic_sweep_cliff(self):
        """Cache >= working set: only cold misses; smaller: all misses."""
        stream = self._cyclic_stream(20, 10)
        sampler = ReuseDistanceSampler()
        sampler.consume(stream)
        small, large = statstack_miss_ratios(sampler, [10, 40])
        assert small == pytest.approx(1.0, abs=0.05)
        assert large == pytest.approx(20 / 200, abs=0.02)

    def test_close_to_exact_on_random_stream(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 200, 4000).tolist()
        sampler = ReuseDistanceSampler()
        sampler.consume(stream)
        exact = StackDistanceProfiler()
        exact.consume(stream)
        for capacity in (16, 64, 128):
            approx = statstack_miss_ratios(sampler, [capacity])[0]
            truth = exact.miss_ratio_at(capacity)
            assert approx == pytest.approx(truth, abs=0.08)

    def test_empty_sampler_rejected(self):
        with pytest.raises(PredictionError):
            statstack_miss_ratios(ReuseDistanceSampler(), [4])

    def test_invalid_capacity(self):
        s = ReuseDistanceSampler()
        s.consume([1, 1])
        with pytest.raises(PredictionError):
            statstack_miss_ratios(s, [0])
