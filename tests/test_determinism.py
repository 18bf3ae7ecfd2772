"""End-to-end determinism: identical inputs give bit-identical results.

Reproducibility is a first-class property of the whole stack — traces,
timing simulation (including the latency-jitter LCG), MRC collection and
prediction must be exact functions of their inputs.
"""

import pytest

from repro.gpu import GPUConfig, McmConfig, simulate, simulate_mcm
from repro.mrc import collect_miss_rate_curve
from repro.workloads import STRONG_SCALING, WEAK_SCALING, build_trace
from repro.workloads.generators import _generate_trace


def fresh_trace(spec, work_scale=1.0, capacity_scale=0.125, seed=0):
    """A newly generated trace (``build_trace`` may hand back its last one)."""
    return _generate_trace(spec, work_scale, capacity_scale, seed)


@pytest.fixture(scope="module")
def small_spec():
    return WEAK_SCALING["va"]  # the cheapest full benchmark


class TestTimingDeterminism:
    def test_same_seed_same_cycles(self, small_spec):
        cfg = GPUConfig.paper_system(8)
        runs = [
            simulate(cfg, fresh_trace(small_spec, capacity_scale=cfg.capacity_scale))
            for __ in range(2)
        ]
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].thread_instructions == runs[1].thread_instructions
        assert runs[0].llc_misses == runs[1].llc_misses
        assert runs[0].memory_stall_fraction == runs[1].memory_stall_fraction

    def test_different_seed_different_timing(self, small_spec):
        cfg = GPUConfig.paper_system(8)
        a = simulate(cfg, build_trace(small_spec, seed=0,
                                      capacity_scale=cfg.capacity_scale))
        b = simulate(cfg, build_trace(small_spec, seed=1,
                                      capacity_scale=cfg.capacity_scale))
        assert a.cycles != b.cycles

    def test_mcm_deterministic(self, small_spec):
        cfg = McmConfig.paper_target().scaled(4)
        runs = [
            simulate_mcm(cfg, fresh_trace(
                small_spec, work_scale=4.0,
                capacity_scale=cfg.chiplet.capacity_scale))
            for __ in range(2)
        ]
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].extra["remote_fraction"] == runs[1].extra["remote_fraction"]


class TestMrcDeterminism:
    def test_curves_identical(self, small_spec):
        curves = [
            collect_miss_rate_curve(fresh_trace(small_spec)) for __ in range(2)
        ]
        assert curves[0].mpki == curves[1].mpki
        assert curves[0].miss_ratio == curves[1].miss_ratio


class TestTraceInstructionAccounting:
    def test_simulated_instructions_match_trace(self, small_spec):
        cfg = GPUConfig.paper_system(8)
        trace = build_trace(small_spec, capacity_scale=cfg.capacity_scale)
        expected = trace.count_instructions(cfg.threads_per_warp)
        trace2 = build_trace(small_spec, capacity_scale=cfg.capacity_scale)
        result = simulate(cfg, trace2)
        assert result.thread_instructions == expected

    def test_accesses_match_trace(self, small_spec):
        cfg = GPUConfig.paper_system(8)
        expected = build_trace(small_spec).count_accesses()
        result = simulate(cfg, build_trace(small_spec,
                                           capacity_scale=cfg.capacity_scale))
        assert result.memory_accesses == expected
