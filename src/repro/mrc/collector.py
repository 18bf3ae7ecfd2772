"""End-to-end miss-rate-curve collection from a workload trace.

Pipeline (Section V-A of the paper): functional trace → GPU-aware
interleaving (:mod:`repro.mrc.interleave`) → per-virtual-SM functional L1
filtering → LLC reference stream → stack-distance profiling → MPKI at
every LLC capacity of interest.  One pass over the trace buffers the
LLC stream; the profiler then resolves it in one piece.

This path involves no timing simulation, which is what makes miss-rate
curves orders of magnitude cheaper to collect than scale-model
performance profiles.
"""

from __future__ import annotations

import time as _time
from array import array
from typing import List, Optional, Sequence

from repro.exceptions import PredictionError
from repro.gpu.cache import SetAssocCache
from repro.gpu.config import GPUConfig
from repro.memory_regions import BYPASS_BASE
from repro.mrc.curve import MissRateCurve
from repro.mrc.interleave import StreamStats, iter_interleaved
from repro.mrc.stack_distance import MultiCapacityLRU, StackDistanceProfiler
from repro.mrc.statstack import ReuseDistanceSampler, statstack_miss_ratios
from repro.trace.kernel import WorkloadTrace


def paper_capacity_points(
    baseline: Optional[GPUConfig] = None,
    sizes: Sequence[int] = (8, 16, 32, 64, 128),
) -> List[int]:
    """Nominal LLC capacities of the paper's systems (2.125 ... 34 MB)."""
    base = baseline if baseline is not None else GPUConfig.paper_baseline()
    return [base.scaled(n).llc_size for n in sizes]


def collect_miss_rate_curve(
    workload: WorkloadTrace,
    capacities_bytes: Optional[Sequence[int]] = None,
    config: Optional[GPUConfig] = None,
    method: str = "stack",
    num_virtual_sms: int = 16,
) -> MissRateCurve:
    """Collect the LLC miss-rate curve of ``workload``.

    ``capacities_bytes`` are nominal capacities (default: the paper's five
    system points); the configured ``capacity_scale`` converts them to
    simulated lines.  ``method`` selects the profiler:

    * ``"stack"`` — exact single-pass stack distances (default);
    * ``"lru"`` — exact multi-capacity LRU simulation;
    * ``"statstack"`` — statistical estimate from reuse distances.
    """
    cfg = config if config is not None else GPUConfig.paper_baseline()
    caps = list(capacities_bytes) if capacities_bytes else paper_capacity_points(cfg)
    if any(c <= 0 for c in caps):
        raise PredictionError(f"capacities must be positive: {caps}")
    cap_lines = [
        max(1, int(c * cfg.capacity_scale) // cfg.line_size) for c in caps
    ]

    start = _time.perf_counter()
    l1s = [
        SetAssocCache(cfg.l1_sets, cfg.l1_assoc, name=f"mrc-l1-{i}")
        for i in range(num_virtual_sms)
    ]
    if method == "stack":
        profiler = StackDistanceProfiler()
    elif method == "lru":
        profiler = MultiCapacityLRU(cap_lines)
    elif method == "statstack":
        profiler = ReuseDistanceSampler()
    else:
        raise PredictionError(
            f"unknown MRC method {method!r}; use stack, lru or statstack"
        )

    ctas_per_sm = 6
    stream = array("q")
    keep = stream.append
    llc_accesses = 0
    l1_accesses = 0
    bypass_misses = 0
    stream_stats = StreamStats()
    for vsm, chunk in iter_interleaved(
        workload, num_virtual_sms, ctas_per_sm, stats=stream_stats
    ):
        l1_access = l1s[vsm].access
        for line in chunk.tolist():
            l1_accesses += 1
            if not l1_access(line):
                llc_accesses += 1
                if line >= BYPASS_BASE:
                    # No-allocate streaming hint: misses at every capacity.
                    bypass_misses += 1
                else:
                    keep(line)
    profiler.consume(stream)
    del stream  # the profiler holds its own copy; free this one first

    if llc_accesses == 0:
        raise PredictionError(
            f"{workload.name}: no LLC accesses reached the profiler"
        )
    profiled = llc_accesses - bypass_misses
    if method == "statstack":
        ratios = statstack_miss_ratios(profiler, cap_lines)
        misses = [r * profiled + bypass_misses for r in ratios]
    else:
        misses = [float(m) + bypass_misses for m in profiler.miss_curve(cap_lines)]
    ratios = [m / llc_accesses for m in misses]

    # Thread instructions were accumulated during the interleaving pass.
    thread_instructions = stream_stats.thread_instructions(32)
    kilo_instructions = thread_instructions / 1000.0
    mpki = [m / kilo_instructions for m in misses]
    elapsed = _time.perf_counter() - start
    return MissRateCurve(
        workload=workload.name,
        capacities_bytes=tuple(caps),
        mpki=tuple(mpki),
        miss_ratio=tuple(ratios),
        metadata={
            "method_stack": 1.0 if method == "stack" else 0.0,
            "l1_accesses": float(l1_accesses),
            "llc_accesses": float(llc_accesses),
            "thread_instructions": float(thread_instructions),
            "collection_seconds": elapsed,
        },
    )
