"""``build_trace`` returns its most recent trace again for equal arguments.

The scale-model simulations of a workload, its target run and its MRC
share one trace and the CTAs its kernels have stored; these tests pin
when CTAs are stored and what that sharing may and may not change.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.gpu import GPUConfig, simulate
from repro.mrc.collector import collect_miss_rate_curve
from repro.trace import trace_digest
from repro.workloads import build_trace
from repro.workloads.generators import _generate_trace
from repro.workloads.spec import BenchmarkSpec, KernelShape, ScalingBehavior


def spec_for(family="irregular", **params):
    """A two-kernel spec small enough to simulate in a test."""
    params = {"apw": 6, "sigma": 0.5, **params}
    return BenchmarkSpec(
        abbr="reuse", name="Reuse", suite="S", footprint_mb=2.0, insns_m=1.0,
        kernels=(KernelShape(24, 64), KernelShape(12, 128)),
        scaling=ScalingBehavior.LINEAR, family=family, params=params,
    )


class TestReuse:
    def test_equal_arguments_return_the_same_trace(self):
        first = build_trace(spec_for(), 1.0, 0.125, 3)
        # An equal spec built separately still hits.
        assert build_trace(spec_for(), 1.0, 0.125, 3) is first

    @pytest.mark.parametrize(
        "changed",
        [
            {"seed": 4},
            {"work_scale": 2.0},
            {"capacity_scale": 0.25},
            {"spec": spec_for(apw=7)},
            {"spec": spec_for(family="stream")},
        ],
        ids=["seed", "work_scale", "capacity_scale", "param", "family"],
    )
    def test_any_differing_argument_builds_a_new_trace(self, changed):
        args = {"spec": spec_for(), "work_scale": 1.0,
                "capacity_scale": 0.125, "seed": 3}
        first = build_trace(**args)
        second = build_trace(**{**args, **changed})
        assert second is not first
        assert build_trace(**args) is not second

    def test_previous_trace_is_freed(self):
        trace = build_trace(spec_for(), seed=3)
        build_trace(spec_for(), seed=3)
        trace.kernels[0].warps(trace.kernels[0].num_ctas - 1)
        assert len(trace.kernels[0].store) == trace.kernels[0].num_ctas
        gone = weakref.ref(trace)
        del trace
        build_trace(spec_for(apw=7), seed=3)
        gc.collect()
        assert gone() is None


def _fields(result) -> dict:
    fields = dataclasses.asdict(result)
    del fields["wall_time_s"]
    return fields


class TestStoringPolicy:
    def test_a_trace_used_once_stores_nothing(self):
        config = GPUConfig.paper_baseline().scaled(8)
        for work_scale in (1.0, 2.0):  # a weak-scaling sweep
            trace = build_trace(
                spec_for(), work_scale, config.capacity_scale, 3
            )
            simulate(config, trace)
            assert [len(k.store) for k in trace.kernels] == [0, 0]
            assert not any(k.storing for k in trace.kernels)

    def test_a_trace_handed_out_again_stores_its_ctas(self):
        config = GPUConfig.paper_baseline().scaled(8)
        trace = build_trace(spec_for(), 1.0, config.capacity_scale, 3)
        collect_miss_rate_curve(trace)
        assert build_trace(spec_for(), 1.0, config.capacity_scale, 3) is trace
        assert all(k.storing for k in trace.kernels)
        simulate(config, trace)
        assert [len(k.store) for k in trace.kernels] == [24, 12]


class TestStoredTraceReplaysIdentically:
    def test_simulation_mrc_and_digest_match_a_fresh_build(self):
        spec = spec_for()
        config = GPUConfig.paper_baseline().scaled(8)
        trace = build_trace(spec, capacity_scale=config.capacity_scale)
        cold = simulate(config, trace)
        assert [len(k.store) for k in trace.kernels] == [0, 0]
        assert build_trace(spec, capacity_scale=config.capacity_scale) is trace
        filling = simulate(config, trace)
        assert [len(k.store) for k in trace.kernels] == [24, 12]

        def fresh():
            return _generate_trace(spec, 1.0, config.capacity_scale, 0)

        stored = build_trace(spec, capacity_scale=config.capacity_scale)
        assert stored is trace
        want = _fields(simulate(config, fresh()))
        assert _fields(cold) == _fields(filling) == want
        assert _fields(simulate(config, stored)) == want
        got = collect_miss_rate_curve(stored)
        want = collect_miss_rate_curve(fresh())
        assert got.capacities_bytes == want.capacities_bytes
        assert got.mpki == want.mpki
        assert got.miss_ratio == want.miss_ratio
        del got.metadata["collection_seconds"], want.metadata["collection_seconds"]
        assert got.metadata == want.metadata
        assert trace_digest(stored) == trace_digest(fresh())

    def test_partly_stored_trace_replays_identically(self):
        spec = spec_for()
        trace = _generate_trace(spec, 1.0, 0.125, 0)
        trace.kernels[0].storing = True
        trace.kernels[0].warps(9)
        assert [len(k.store) for k in trace.kernels] == [10, 0]
        fresh = _generate_trace(spec, 1.0, 0.125, 0)
        assert trace_digest(trace) == trace_digest(fresh)
        assert (
            collect_miss_rate_curve(trace).mpki
            == collect_miss_rate_curve(fresh).mpki
        )

    def test_mrc_leaves_the_store_empty(self):
        trace = _generate_trace(spec_for(), 1.0, 0.125, 0)
        collect_miss_rate_curve(trace)
        assert [len(k.store) for k in trace.kernels] == [0, 0]
