"""Workload traces: the interface between benchmarks and simulators.

A workload is a sequence of kernels; a kernel is a grid of CTAs; a CTA is
a handful of warps; a warp trace is an alternating sequence of compute
bursts and memory accesses at cache-line granularity.  CTAs are built
lazily and deterministically — ``build_cta(cta_id)`` always returns the
same trace for the same spec and seed.  Once a trace is handed out a
second time, the timing simulator stores each CTA it generates in its
kernel's columnar :class:`CTAStore`, so later runs and the
miss-rate-curve collector replay it without generating it again; the
collector itself stores nothing.
"""

from repro.trace.kernel import CTAStore, CTATrace, KernelTrace, WarpTrace, WorkloadTrace
from repro.trace.sampling import SievePlan, sieve_sample
from repro.trace import patterns
from repro.trace.io import trace_digest

__all__ = [
    "WarpTrace",
    "CTATrace",
    "CTAStore",
    "KernelTrace",
    "WorkloadTrace",
    "SievePlan",
    "sieve_sample",
    "patterns",
    "trace_digest",
]
