"""MRC collector integration tests on small synthetic workloads."""

import numpy as np
import pytest

from repro.exceptions import PredictionError, TraceError
from repro.gpu.config import GPUConfig
from repro.memory_regions import BYPASS_BASE
from repro.mrc.collector import collect_miss_rate_curve, paper_capacity_points
from repro.mrc.interleave import StreamStats, interleave_cta, iter_interleaved
from repro.trace.kernel import CTATrace, KernelTrace, WarpTrace, WorkloadTrace
from repro.units import MB
from repro.workloads import build_trace, get_benchmark


def cfg(scale=1.0):
    return GPUConfig.paper_baseline(capacity_scale=scale)


def sweep_workload(ws_lines, num_ctas=32, apw=64, name="sweep"):
    def build(cta_id):
        warps = []
        for w in range(2):
            gidx = cta_id * 2 + w
            lines = [(gidx * apw + i) % ws_lines for i in range(apw)]
            warps.append(WarpTrace([1] * apw, lines))
        return CTATrace(cta_id, warps)

    return WorkloadTrace(name, [KernelTrace("k", num_ctas, 64, build)])


class TestPaperCapacityPoints:
    def test_default_ladder(self):
        caps = paper_capacity_points()
        assert caps == [
            int(2.125 * MB), int(4.25 * MB), int(8.5 * MB),
            17 * MB, 34 * MB,
        ]


class TestInterleave:
    def test_equal_length_round_robin(self):
        a = np.array([1, 2, 3])
        b = np.array([10, 20, 30])
        merged = interleave_cta([a, b])
        assert merged.tolist() == [1, 10, 2, 20, 3, 30]

    def test_unequal_lengths(self):
        a = np.array([1, 2, 3])
        b = np.array([10])
        merged = interleave_cta([a, b])
        assert merged.tolist() == [1, 10, 2, 3]

    def test_empty_cta_rejected(self):
        with pytest.raises(TraceError):
            interleave_cta([])

    def test_stats_accumulate(self):
        wl = sweep_workload(100, num_ctas=4, apw=8)
        stats = StreamStats()
        chunks = list(iter_interleaved(wl, 2, 2, stats=stats))
        assert stats.ctas == 4
        assert stats.accesses == 4 * 2 * 8
        assert stats.warp_instructions == 4 * 2 * 8 * 2  # compute 1 + access
        total = sum(len(c) for __, c in chunks)
        assert total == stats.accesses


class TestCollector:
    def test_cliff_appears_at_working_set(self):
        # A 3 MB cyclic working set swept ~3.3 times: the 2.125 MB cache
        # thrashes; 4.25 MB and above keep it entirely (cold misses only).
        ws = int(3 * MB / 128)
        wl = sweep_workload(ws, num_ctas=256, apw=160)
        curve = collect_miss_rate_curve(wl, config=cfg(1.0))
        # Thrashing at 2.125 MB, cold-misses-only from 4.25 MB upward.
        assert curve.mpki[0] > 1.8 * curve.mpki[1]
        assert curve.mpki[1] == pytest.approx(curve.mpki[4], rel=0.05)
        cold_only = 1000.0 * (3 * MB / 128) / curve.metadata["thread_instructions"]
        assert curve.mpki[4] == pytest.approx(cold_only, rel=0.05)

    def test_methods_agree_exact(self):
        wl = sweep_workload(2000, num_ctas=64, apw=32)
        stack = collect_miss_rate_curve(wl, config=cfg(1.0), method="stack")
        lru = collect_miss_rate_curve(wl, config=cfg(1.0), method="lru")
        assert stack.mpki == pytest.approx(lru.mpki)

    def test_statstack_close_to_exact(self):
        def build(cta_id):
            rng = np.random.default_rng(cta_id)
            lines = rng.integers(0, 60000, 64).tolist()
            return CTATrace(cta_id, [WarpTrace([1] * 64, lines)])

        wl = WorkloadTrace("rand", [KernelTrace("k", 128, 32, build)])
        stack = collect_miss_rate_curve(wl, config=cfg(1.0), method="stack")
        stat = collect_miss_rate_curve(wl, config=cfg(1.0), method="statstack")
        for a, b in zip(stack.mpki, stat.mpki):
            assert b == pytest.approx(a, rel=0.25, abs=0.1)

    def test_bypass_lines_always_miss(self):
        def build(cta_id):
            lines = [BYPASS_BASE + cta_id * 8 + i for i in range(8)]
            return CTATrace(cta_id, [WarpTrace([1] * 8, lines)])

        wl = WorkloadTrace("byp", [KernelTrace("k", 16, 32, build)])
        curve = collect_miss_rate_curve(wl, config=cfg(1.0))
        # Identical MPKI at every capacity, and every access misses.
        assert len(set(curve.mpki)) == 1
        assert curve.miss_ratio[0] == pytest.approx(1.0)

    def test_custom_capacities(self):
        wl = sweep_workload(1000, num_ctas=16, apw=16)
        curve = collect_miss_rate_curve(
            wl, capacities_bytes=[1 * MB, 2 * MB], config=cfg(1.0)
        )
        assert curve.capacities_bytes == (1 * MB, 2 * MB)

    def test_metadata(self):
        wl = sweep_workload(1000, num_ctas=16, apw=16)
        curve = collect_miss_rate_curve(wl, config=cfg(1.0))
        md = curve.metadata
        assert md["l1_accesses"] == 16 * 2 * 16
        assert md["thread_instructions"] == 16 * 2 * 16 * 2 * 32
        assert md["collection_seconds"] >= 0

    def test_unknown_method(self):
        wl = sweep_workload(100, num_ctas=4, apw=8)
        with pytest.raises(PredictionError):
            collect_miss_rate_curve(wl, config=cfg(1.0), method="magic")

    def test_invalid_capacity(self):
        wl = sweep_workload(100, num_ctas=4, apw=8)
        with pytest.raises(PredictionError):
            collect_miss_rate_curve(wl, capacities_bytes=[0], config=cfg(1.0))


class TestMethodsOnFixedTraces:
    def test_stack_and_lru_bit_identical_on_table_ii_trace(self):
        """The offline stack pass against the independent dict-based LRU
        on a GPU-interleaved Table II stream."""
        config = GPUConfig.paper_baseline()
        trace = build_trace(
            get_benchmark("va"), work_scale=0.25,
            capacity_scale=config.capacity_scale, seed=0,
        )
        stack = collect_miss_rate_curve(trace, config=config, method="stack")
        lru = collect_miss_rate_curve(trace, config=config, method="lru")
        assert stack.metadata["llc_accesses"] > 10_000
        assert len(set(stack.mpki)) > 1
        assert stack.mpki == lru.mpki
        assert stack.miss_ratio == lru.miss_ratio

    def test_statstack_output_pinned(self):
        """StatStack estimates on a fixed random trace, as produced by the
        per-access sampler the buffered one replaced."""
        def build(cta_id):
            rng = np.random.default_rng(cta_id)
            lines = rng.integers(0, 6000, 64).tolist()
            return CTATrace(cta_id, [WarpTrace([1] * 64, lines)])

        wl = WorkloadTrace("rand", [KernelTrace("k", 64, 32, build)])
        curve = collect_miss_rate_curve(
            wl, config=cfg(1 / 64), method="statstack"
        )
        assert curve.mpki == (
            14.911651611328125, 14.247894287109375, 12.47406005859375,
            11.486053466796875, 11.486053466796875,
        )
        assert curve.miss_ratio == (
            0.9552785923753666, 0.9127565982404692, 0.7991202346041055,
            0.7358260019550342, 0.7358260019550342,
        )
