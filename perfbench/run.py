#!/usr/bin/env python3
"""The repository's benchmark: host time and accuracy of scale-model runs.

Run from the repository root:

  python3 perfbench/run.py --workload strong-sweep --seed 0 --seconds 30 --trace 0
  python3 perfbench/run.py --workload mrc-characterize --seed 3 --trace 1

``--trace 0`` repeats cold passes of the workload for up to
``--seconds`` (starting a pass only when it should end in time; the
first pass always runs), checks every pass's outputs and prints
the end-to-end metrics.  ``--trace 1`` runs one plain pass and one
profiled pass, checks both, and prints the per-layer metrics; the
profiled pass's spans (Chrome ``trace_event`` form) and profile go to
``.perfbench/trace-<workload>-seed<seed>.json``.
The last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``).  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
repository's source tree is not there.

``--record`` pins the run's output digests as the reference for its
seed in ``perfbench/reference.json``.  See README.md
for the metrics, the workloads and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
#: Run outputs (traces, the per-checkout count ledger, zoo stores); the
#: repository's .gitignore lists it.
OUT_DIR = ".perfbench"
SETUP_PROBES = 7

WORKLOAD_NAMES = ("strong-sweep", "mrc-characterize", "zoo-campaign")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("mrc_refs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer profile shares: metric -> the ``repro`` module or package
#: whose self time it sums.
SHARES = {
    "trace.share": "repro.trace",
    "workloads.share": "repro.workloads",
    "engine.event.share": "repro.engine.event",
    "engine.kernel.share": "repro.engine.kernel",
    "engine.resource.share": "repro.engine.resource",
    "gpu.memory.share": "repro.gpu.memory",
    "gpu.cache.share": "repro.gpu.cache",
    "gpu.noc.share": "repro.gpu.noc",
    "gpu.dram.share": "repro.gpu.dram",
    "gpu.sm.share": "repro.gpu.sm",
    "gpu.gpu.share": "repro.gpu.gpu",
    "mrc.stack_distance.share": "repro.mrc.stack_distance",
    "mrc.interleave.share": "repro.mrc.interleave",
    "mrc.collector.share": "repro.mrc.collector",
    "analysis.share": "repro.analysis",
    "campaign.share": "repro.campaign",
}

#: Work counts: deterministic in (workload, seed) for a given source
#: tree, so identical across passes, runs, and traced and untraced runs.
COUNTS = (
    "trace.ctas_built",
    "engine.events",
    "gpu.sims",
    "gpu.warp_insns",
    "gpu.mem_accesses",
    "gpu.l1_hits",
    "gpu.l1_merged",
    "gpu.llc_hits",
    "gpu.llc_misses",
    "mrc.curves",
    "mrc.l1_accesses",
    "mrc.llc_accesses",
    "core.predictions",
    "runner.hits",
    "runner.misses",
    "runner.executed",
    "runner.retries",
    "store.records",
    "zoo.workloads",
    "zoo.failures",
)

#: Per-layer metrics every workload reports (0 where a workload does no
#: such work), in print order, with units.
PER_LAYER = (
    ("time_to_prediction_s", "s"),
    ("warp_insns_per_s", "1/s"),
    ("mape_pct", "%"),
    ("error_rate", "fraction"),
    ("trace.ctas_built", "count"),
    ("trace.share", "fraction"),
    ("workloads.share", "fraction"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.event.share", "fraction"),
    ("engine.kernel.share", "fraction"),
    ("engine.resource.share", "fraction"),
    ("gpu.sims", "count"),
    ("gpu.warp_insns", "count"),
    ("gpu.mem_accesses", "count"),
    ("gpu.l1_hits", "count"),
    ("gpu.l1_merged", "count"),
    ("gpu.llc_hits", "count"),
    ("gpu.llc_misses", "count"),
    ("gpu.memory.share", "fraction"),
    ("gpu.cache.share", "fraction"),
    ("gpu.noc.share", "fraction"),
    ("gpu.dram.share", "fraction"),
    ("gpu.sm.share", "fraction"),
    ("gpu.gpu.share", "fraction"),
    ("mrc.curves", "count"),
    ("mrc.l1_accesses", "count"),
    ("mrc.llc_accesses", "count"),
    ("mrc.ns_per_ref", "ns"),
    ("mrc.stack_distance.share", "fraction"),
    ("mrc.interleave.share", "fraction"),
    ("mrc.collector.share", "fraction"),
    ("core.predictions", "count"),
    ("core.predict_s", "s"),
    ("runner.hits", "count"),
    ("runner.misses", "count"),
    ("runner.executed", "count"),
    ("runner.retries", "count"),
    ("store.records", "count"),
    ("parallel.prefetch_s", "s"),
    ("store.flush_s", "s"),
    ("store.reload_s", "s"),
    ("store.bytes", "bytes"),
    ("runner.warm_s", "s"),
    ("zoo.workloads", "count"),
    ("zoo.failures", "count"),
    ("zoo.regime_match_rate", "fraction"),
    ("analysis.share", "fraction"),
    ("campaign.share", "fraction"),
    ("trace_overhead_pct", "%"),
    ("profile.unattributed_share", "fraction"),
)

#: Per-layer metrics taken from a pass's span- and payload-derived values
#: (0 where the workload does no such work).
VALUES = {
    "core.predict_s": "predict_s",
    "parallel.prefetch_s": "prefetch_s",
    "store.flush_s": "flush_s",
    "store.reload_s": "reload_s",
    "store.bytes": "store_bytes",
    "runner.warm_s": "warm_s",
    "zoo.regime_match_rate": "regime_match_rate",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tree_digest() -> str:
    """Digest of the program and benchmark sources, keying the per-checkout
    count ledger so a different program never compares against it."""
    digest = hashlib.sha256()
    for top in ("src", HERE):
        for directory, dirs, names in os.walk(top):
            dirs.sort()
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _compare(label: str, expected: dict, actual: dict, failures: list) -> None:
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            failures.append(
                f"{label}: {key} is {actual.get(key)!r}, expected {expected.get(key)!r}"
            )


def _counted(result) -> dict:
    return {
        "counts": {k: v for k, v in result.counts.items() if k in COUNTS},
        "digests": result.digests,
    }


def _check(workload: str, seed: int, results: list, record: bool) -> list:
    """Every output check across the run's passes; returns the failures.

    The reference pins outputs only (payload and zoo regime digests), so
    a change that does less work for the same outputs still passes; the
    work counts are compared across the run's passes and across runs of
    the same source tree in this checkout.
    """
    failures = []
    for number, result in enumerate(results, 1):
        failures += [f"pass {number}: {f}" for f in result.failures]
    first = _counted(results[0])
    for number, result in enumerate(results[1:], 2):
        other = _counted(result)
        _compare(f"pass {number} vs pass 1 counts", first["counts"], other["counts"], failures)
        _compare(f"pass {number} vs pass 1 digests", first["digests"], other["digests"], failures)

    with open(REFERENCE) as handle:
        reference = json.load(handle)
    pinned = reference.get(workload, {}).get(str(seed))
    if record and not failures:
        reference.setdefault(workload, {})[str(seed)] = first["digests"]
        with open(REFERENCE, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    elif pinned is not None and not record:
        _compare("reference digests", pinned, first["digests"], failures)

    ledger = os.path.join(OUT_DIR, "seen", f"{workload}-{seed}-{_tree_digest()}.json")
    if os.path.exists(ledger):
        with open(ledger) as handle:
            seen = json.load(handle)
        _compare("earlier run counts", seen["counts"], first["counts"], failures)
        _compare("earlier run digests", seen["digests"], first["digests"], failures)
    elif not failures:
        os.makedirs(os.path.dirname(ledger), exist_ok=True)
        with open(ledger + ".tmp", "w") as handle:
            json.dump(first, handle, sort_keys=True)
        os.replace(ledger + ".tmp", ledger)
    return failures


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (pool worker), MiB."""
    from repro.obs.resources import peak_rss_bytes

    # Linux reports the children's ``ru_maxrss`` in KiB.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return (peak_rss_bytes() + children) / 2**20


def _setup_s(workload: str, seed: int) -> float:
    """Median time from starting a fresh process to its being ready for
    the workload's first call: it imports, derives the configurations,
    opens the store and prints a line.  Its exit is not timed."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode or ready != "ready\n":
            raise RuntimeError(f"set-up probe exited {probe.returncode}")
    return statistics.median(times)


def _end_to_end(results: list, peak_rss_mb: float, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in results),
        "mrc_refs_per_s": statistics.median(
            _ratio(r.counts["mrc.l1_accesses"], r.values["mrc_s"]) for r in results
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(plain, traced, error_rate: float) -> dict:
    counts, values, sampler = traced.counts, traced.values, traced.sampler
    metrics = {
        "time_to_prediction_s": values.get("prediction_s", 0.0),
        "warp_insns_per_s": _ratio(counts["gpu.warp_insns"], values["sim_s"]),
        "mape_pct": values.get("mape_pct", 0.0),
        "error_rate": error_rate,
        "engine.ns_per_event": _ratio(1e9 * values["sim_s"], counts["engine.events"]),
        "mrc.ns_per_ref": _ratio(1e9 * values["mrc_s"], counts["mrc.l1_accesses"]),
        "trace_overhead_pct": 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        "profile.unattributed_share": _ratio(sampler.unattributed_s, sampler.wall_s),
    }
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    metrics.update({name: values.get(key, 0.0) for name, key in VALUES.items()})
    metrics.update({name: sampler.share(module) for name, module in SHARES.items()})
    return metrics


def _write_trace(workload: str, seed: int, traced, metrics: dict) -> str:
    sampler = traced.sampler
    document = {
        "workload": workload,
        "seed": seed,
        "traceEvents": traced.events,
        "profile": {
            "wall_s": sampler.wall_s,
            "samples": sampler.samples,
            "unattributed_s": sampler.unattributed_s,
            "modules_s": dict(sorted(sampler.by_module.items(), key=lambda kv: -kv[1])),
        },
        "metrics": metrics,
    }
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure cold passes for up to this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="pin this run's output digests as the seed's reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    # Measure the default configuration: no paranoia mode, fault
    # injection, worker-count or observability overrides.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    import passes

    if args.setup_probe:
        passes.setup(args.workload, args.seed, OUT_DIR)
        print("ready", flush=True)
        return 0

    from repro.obs.profile_hooks import install

    # Record the repro.obs spans (runner computations, pool batches,
    # store flushes and loads) that the metrics are derived from.
    install()

    ctas = passes.CtaCounter()
    run_pass = passes.WORKLOADS[args.workload]
    results, failures = [], []
    try:
        if args.trace:
            results.append(run_pass(args.seed, ctas, False, OUT_DIR))
            results.append(run_pass(args.seed, ctas, True, OUT_DIR))
        else:
            # Start another pass only while it is expected to end within
            # --seconds; the first pass always runs.
            start = time.perf_counter()
            while True:
                results.append(run_pass(args.seed, ctas, False, OUT_DIR))
                print(f"pass {len(results)}: {results[-1].wall_s:.3f} s", file=sys.stderr)
                elapsed = time.perf_counter() - start
                if elapsed + results[-1].wall_s > args.seconds:
                    break
    except Exception:
        traceback.print_exc()
        failures.append("a workload call raised")
    attempted = sum(r.attempted for r in results) + (1 if failures else 0)
    if results:
        failures += _check(args.workload, args.seed, results, args.record)
    if not failures and not args.trace:
        peak = _peak_rss_mb()
        try:
            setup = _setup_s(args.workload, args.seed)
        except RuntimeError as error:
            failures.append(f"set-up probe: {error}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = min(len(failures), attempted)
    error_rate = failed / attempted

    metrics = {}
    if not failures:
        if args.trace:
            values = _per_layer(results[0], results[1], error_rate)
            units = PER_LAYER
            path = _write_trace(args.workload, args.seed, results[1], values)
            print(f"spans and profile: {path}", file=sys.stderr)
        else:
            values = _end_to_end(results, peak, setup)
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(f"{args.workload} seed {args.seed}: {len(results)} pass(es), "
          f"{attempted} operations, {failed} failed (error_rate {error_rate:g})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
