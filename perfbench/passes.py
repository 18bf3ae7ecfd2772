"""The benchmark's workloads: one cold pass each, plus its output checks.

A pass builds every input from the seed, starts from an empty result
store, issues one call at a time (closed loop) and returns a
:class:`PassResult`: the wall time of the workload calls, the spans the
``repro.obs`` tracer recorded meanwhile, deterministic work counts,
content digests of every simulation and miss-rate-curve payload, and the
failures its own output checks found.  Only public entry points of
``repro`` are called.  Each workload imports what only it uses inside
its pass, so the set-up probe of one workload pays for no other's
imports.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.runner import CachedRunner, mrc_key, sim_key
from repro.gpu import GPUConfig
from repro.obs.tracing import get_tracer
from repro.trace.kernel import CTATrace
from repro.verify.digest import payload_digest
from repro.workloads import get_benchmark

from sampler import Sampler

#: strong-sweep: one Table II benchmark per scaling class (the golden
#: ledger's quick tier), profiled at 8/16 SMs and predicted at 32.
STRONG_SPECS = ("va", "btree", "bs")
SCALES = (8, 16)
TARGET = 32
SIZES = (*SCALES, TARGET)
#: mrc-characterize: generator families strong-sweep does not cover
#: (sweep with 3 kernels, hotcold, tiled, a 1.4 GB stream).
MRC_SPECS = ("dct", "bfs", "gemm", "res50")
#: zoo-campaign: the shapes of the zoo sampler's seed-0 batch of six
#: (4 linear and 2 super-linear measured), with the pool's two workers.
ZOO_N = 6
ZOO_JOBS = 2
ZOO_KIND = "perfbench-zoo"


class CtaCounter:
    """Counts ``CTATrace`` constructions in this process.

    The generated dataclass ``__init__`` looks ``__post_init__`` up on
    the class, so wrapping it sees every construction.
    """

    def __init__(self) -> None:
        self.count = 0
        original = CTATrace.__post_init__

        def counted(cta: CTATrace) -> None:
            self.count += 1
            original(cta)

        CTATrace.__post_init__ = counted


@dataclass
class PassResult:
    """What one cold pass measured and found."""

    wall_s: float
    #: The tracer's complete events (Chrome ``trace_event`` form).
    events: List[dict]
    sampler: Optional[Sampler]
    counts: Dict[str, int]
    digests: Dict[str, str]
    #: Host seconds and scores derived from spans and payloads.
    values: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)


# --- spans ------------------------------------------------------------------------

def _seconds(events: List[dict], prefix: str, within: Optional[dict] = None) -> float:
    """Summed duration of the spans whose name starts with ``prefix``;
    with ``within``, only those that start inside that span."""
    return 1e-6 * sum(
        e["dur"]
        for e in events
        if e["ph"] == "X" and e["name"].startswith(prefix)
        and (within is None or within["ts"] <= e["ts"] <= within["ts"] + within["dur"])
    )


def _span(events: List[dict], name: str) -> dict:
    return next(e for e in events if e["name"] == name)


def _predict_s(events: List[dict]) -> float:
    """Host seconds inside the predictor: the prediction spans minus the
    simulations and curves computed inside them."""
    return sum(
        1e-6 * outer["dur"] - _seconds(events, "run.", within=outer)
        for outer in events
        if outer["name"].startswith("bench.predict:")
    )


# --- payload accounting ---------------------------------------------------------

def _sim_counts(payloads: List[dict]) -> Dict[str, int]:
    return {
        "engine.events": sum(p["events"] for p in payloads),
        "gpu.sims": len(payloads),
        "gpu.warp_insns": sum(p["warp_instructions"] for p in payloads),
        "gpu.mem_accesses": sum(p["memory_accesses"] for p in payloads),
        "gpu.l1_hits": sum(p["l1_hits"] for p in payloads),
        "gpu.l1_merged": sum(int(p["extra"]["l1_merged"]) for p in payloads),
        "gpu.llc_hits": sum(p["llc_hits"] for p in payloads),
        "gpu.llc_misses": sum(p["llc_misses"] for p in payloads),
    }


def _mrc_counts(payloads: List[dict]) -> Dict[str, int]:
    return {
        "mrc.curves": len(payloads),
        "mrc.l1_accesses": sum(int(p["metadata"]["l1_accesses"]) for p in payloads),
        "mrc.llc_accesses": sum(int(p["metadata"]["llc_accesses"]) for p in payloads),
    }


def _runner_counts(runner: CachedRunner) -> Dict[str, int]:
    stats = runner.stats()
    return {
        "runner.hits": stats["runner_hits"],
        "runner.misses": stats["runner_misses"],
        "runner.executed": stats["runner_misses"] + stats["exec_ok"],
        "runner.retries": stats["exec_retries"],
        "store.records": stats["entries"],
    }


def _calls(runner: CachedRunner) -> int:
    stats = runner.stats()
    return stats["runner_hits"] + stats["runner_misses"] + stats["exec_ok"]


def _check_curves(payloads: Dict[str, dict], failures: List[str]) -> None:
    """Stack-distance MPKI never rises with capacity (LRU inclusion)."""
    for key, payload in payloads.items():
        if not key.startswith("mrc|"):
            continue
        pairs = sorted(zip(payload["capacities_bytes"], payload["mpki"]))
        mpki = [value for _, value in pairs]
        if any(later > earlier for earlier, later in zip(mpki, mpki[1:])):
            failures.append(f"{key}: MPKI rises with capacity")


def _finish(
    wall: float,
    sampler: Optional[Sampler],
    ctas: int,
    runner: CachedRunner,
    specs: list,
    seed: int,
    sizes: Tuple[int, ...],
    values: Dict[str, float],
    attempted: int,
    failures: List[str],
) -> PassResult:
    """Collect, check and count the pass's payloads from ``runner``'s store."""
    sim_keys = [sim_key(s, n, 1.0, seed) for s in specs for n in sizes]
    mrc_keys = [mrc_key(s, 1.0, "stack", seed) for s in specs]
    payloads = {}
    for key in sim_keys + mrc_keys:
        payload = runner.store.get(key)
        if payload is None:
            failures.append(f"{key}: no payload in the result store")
        else:
            payloads[key] = payload
    _check_curves(payloads, failures)
    sims = [payloads[k] for k in sim_keys if k in payloads]
    curves = [payloads[k] for k in mrc_keys if k in payloads]
    counts = {"trace.ctas_built": ctas}
    counts.update(_sim_counts(sims))
    counts.update(_mrc_counts(curves))
    counts.update(_runner_counts(runner))
    counts["core.predictions"] = int(values.get("predictions", 0))
    # Simulations that ran in pool workers report their own host time.
    values.setdefault("sim_s", sum(p["wall_time_s"] for p in sims))
    return PassResult(
        wall_s=wall,
        events=get_tracer().events(),
        sampler=sampler,
        counts=counts,
        digests={key: payload_digest(p) for key, p in sorted(payloads.items())},
        values=values,
        attempted=attempted,
        failures=failures,
    )


def _profiled(profile: bool):
    return Sampler() if profile else nullcontext()


def _predict(runner: CachedRunner, spec, seed: int) -> Tuple[float, float]:
    """Fig. 3 for ``spec`` through ``runner``, then the detailed run at the
    target: (predicted, actual) IPC."""
    from repro.core import predict_strong_scaling

    with get_tracer().span(f"bench.predict:{spec.abbr}", cat="bench"):
        study = predict_strong_scaling(
            spec,
            scale_sizes=SCALES,
            target_sizes=(TARGET,),
            simulate_fn=lambda n, w: runner.simulate(spec, n, work_scale=w, seed=seed),
            mrc_fn=lambda: runner.miss_rate_curve(spec, seed=seed),
            include_actuals=False,
        )
    actual = runner.simulate(spec, TARGET, seed=seed).ipc
    return study.predictions["scale-model"][TARGET], actual


def _ape(predicted: float, actual: float) -> float:
    return 100.0 * abs(predicted - actual) / actual


# --- strong-sweep ------------------------------------------------------------------

def strong_sweep(seed: int, ctas: CtaCounter, profile: bool, scratch: str) -> PassResult:
    """Fig. 3 for va/btree/bs, then a detailed run validating each prediction."""
    get_tracer().clear()
    specs = [get_benchmark(abbr) for abbr in STRONG_SPECS]
    runner = CachedRunner(None, jobs=1)
    built = ctas.count
    apes = []
    with _profiled(profile) as sampler:
        start = time.perf_counter()
        for spec in specs:
            apes.append(_ape(*_predict(runner, spec, seed)))
        wall = time.perf_counter() - start
    failures: List[str] = []
    if seed == 0:
        from repro.verify.golden import DEFAULT_LEDGER_PATH, audit_store, load_ledger

        report = audit_store(load_ledger(DEFAULT_LEDGER_PATH), runner.store)
        if not report.ok or len(report.matched) != 12:
            failures.append(report.summary())
    events = get_tracer().events()
    values = {
        "sim_s": _seconds(events, "run.sim:"),
        "mrc_s": _seconds(events, "run.mrc:"),
        "prediction_s": _seconds(events, "bench.predict:"),
        "predict_s": _predict_s(events),
        "predictions": len(apes),
        "mape_pct": sum(apes) / len(apes),
    }
    return _finish(
        wall, sampler, ctas.count - built, runner, specs, seed, SIZES,
        values, _calls(runner) + len(apes), failures,
    )


# --- mrc-characterize ----------------------------------------------------------------

def mrc_characterize(seed: int, ctas: CtaCounter, profile: bool, scratch: str) -> PassResult:
    """Stack-distance miss-rate curves for four more generator families."""
    get_tracer().clear()
    specs = [get_benchmark(abbr) for abbr in MRC_SPECS]
    runner = CachedRunner(None, jobs=1)
    built = ctas.count
    with _profiled(profile) as sampler:
        start = time.perf_counter()
        for spec in specs:
            runner.miss_rate_curve(spec, seed=seed)
        wall = time.perf_counter() - start
    values = {"mrc_s": _seconds(get_tracer().events(), "run.mrc:")}
    return _finish(
        wall, sampler, ctas.count - built, runner, specs, seed, (),
        values, _calls(runner), [],
    )


# --- zoo-campaign ------------------------------------------------------------------

def zoo_specs(seed: int) -> list:
    """The zoo sampler's seed-0 batch re-realized with generator seeds
    drawn from ``seed``: the grammar and CTA counts stay fixed, so the
    amount of work does too, and the seed changes only the generated
    accesses.  At seed 0 these are exactly ``CampaignPlan(6, 0)``'s."""
    from repro.zoo import sample_batch, spec_from_payload

    return [
        spec_from_payload({**spec.payload(), "seed": seed * 10_000 + spec.gen_seed})
        for spec in sample_batch(ZOO_N, 0)
    ]


def _campaign(runner: CachedRunner, specs: list, seed: int, journal=None) -> List[dict]:
    """Sweep, classify and predict every spec, one journaled unit each."""
    from repro.analysis.classify import classify_scaling
    from repro.campaign import run_units
    from repro.exceptions import ReproError

    by_unit = {spec.digest: spec for spec in specs}

    def execute(unit: str) -> Tuple[str, dict]:
        spec = by_unit[unit]
        try:
            predicted, actual = _predict(runner, spec, seed)
            ipcs = [runner.simulate(spec, n, seed=seed).ipc for n in SIZES]
        except ReproError as error:
            return "failed", {"abbr": spec.abbr, "error": str(error)}
        return "ok", {
            "abbr": spec.abbr,
            "intent": spec.intent,
            "measured": classify_scaling(ipcs, SIZES).value,
            "predicted_ipc": predicted,
            "actual_ipc": actual,
        }

    summary = run_units(list(by_unit), execute, journal=journal)
    return [{"status": o.status, **o.record} for o in summary.outcomes]


def _reap_children() -> None:
    """Wait for every pool worker the campaign started to exit."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


def _store_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


def zoo_campaign(seed: int, ctas: CtaCounter, profile: bool, scratch: str) -> PassResult:
    """A journaled generated-workload campaign over an on-disk store with
    a two-worker pool, then a warm replay over a new runner."""
    from repro.analysis.faults import ExecutionPolicy
    from repro.analysis.parallel import RunRequest
    from repro.campaign import CampaignJournal

    tracer = get_tracer()
    tracer.clear()
    specs = zoo_specs(seed)
    # The pool prefetches the simulations only.  Each curve is collected
    # in this process by the unit that needs it, so mrc_refs_per_s times
    # the MRC layer alone, as on the other workloads, rather than two
    # workers contending for the host's cores.
    requests = [RunRequest("sim", s, size=n, seed=seed) for s in specs for n in SIZES]
    plan = {"workloads": [s.payload() for s in specs], "seed": seed, "sizes": list(SIZES)}
    root = tempfile.mkdtemp(prefix="zoo-", dir=scratch)
    store_dir = os.path.join(root, "simcache")
    journal_dir = os.path.join(root, "journal")
    policy = ExecutionPolicy(keep_going=True)
    built = ctas.count
    try:
        with _profiled(profile) as sampler:
            start = time.perf_counter()
            with tracer.span("bench.cold", cat="bench"):
                journal = CampaignJournal.open(
                    journal_dir, ZOO_KIND, plan, created_unix=time.time()
                )
                runner = CachedRunner(store_dir, jobs=ZOO_JOBS, policy=policy)
                runner.prefetch(requests)
                records = _campaign(runner, specs, seed, journal)
                runner.flush()
            with tracer.span("bench.reload", cat="bench"):
                warm = CachedRunner(store_dir, jobs=ZOO_JOBS, policy=policy)
            with tracer.span("bench.replay", cat="bench"):
                replay = _campaign(warm, specs, seed)
            wall = time.perf_counter() - start

        failures = [f"{r['abbr']}: {r['error']}" for r in records if r["status"] != "ok"]
        if replay != records:
            failures.append("warm replay records differ from the cold campaign's")
        warm_stats = warm.stats()
        if warm_stats["runner_misses"] or warm_stats["exec_ok"]:
            failures.append("warm replay executed runs instead of reading the store")
        sealed = CampaignJournal.open(journal_dir, ZOO_KIND, plan, created_unix=0.0)
        if [sealed.completed[r["abbr"][1:]]["record"] for r in records] != [
            {k: v for k, v in r.items() if k != "status"} for r in records
        ]:
            failures.append("journal does not hold every workload's record")

        events = tracer.events()
        cold, replayed = _span(events, "bench.cold"), _span(events, "bench.replay")
        done = [r for r in records if r["status"] == "ok"]
        apes = [_ape(r["predicted_ipc"], r["actual_ipc"]) for r in done]
        values = {
            "mrc_s": _seconds(events, "run.mrc:"),
            "prediction_s": 1e-6 * cold["dur"],
            "predict_s": _predict_s([e for e in events if e["ts"] <= cold["ts"] + cold["dur"]]),
            "predictions": len(done),
            "mape_pct": sum(apes) / len(apes) if apes else 0.0,
            "regime_match_rate": (
                sum(r["intent"] == r["measured"] for r in done) / len(done) if done else 0.0
            ),
            "prefetch_s": _seconds(events, "batch", within=cold),
            "flush_s": _seconds(events, "cache.flush", within=cold),
            "reload_s": _seconds(events, "bench.reload"),
            "warm_s": 1e-6 * replayed["dur"],
            "store_bytes": _store_bytes(store_dir),
        }
        result = _finish(
            wall, sampler, ctas.count - built, runner, specs, seed, SIZES,
            values, _calls(runner) + len(done), failures,
        )
        result.counts["zoo.workloads"] = len(records)
        result.counts["zoo.failures"] = len(records) - len(done)
        result.digests["zoo.regimes"] = ",".join(
            f"{r['abbr']}:{r.get('measured', 'failed')}" for r in records
        )
        return result
    finally:
        _reap_children()
        shutil.rmtree(root, ignore_errors=True)


WORKLOADS: Dict[str, Callable[..., PassResult]] = {
    "strong-sweep": strong_sweep,
    "mrc-characterize": mrc_characterize,
    "zoo-campaign": zoo_campaign,
}


def setup(workload: str, seed: int, scratch: str) -> None:
    """What a workload does before its first call: import its entry
    points, derive the inputs and configurations and open the result
    store.  Timed in a fresh process."""
    for n in SIZES:
        GPUConfig.paper_baseline().scaled(n)
    if workload == "zoo-campaign":
        import repro.analysis.parallel  # noqa: F401  (the pool)
        import repro.campaign  # noqa: F401  (the journal)

        zoo_specs(seed)
        root = tempfile.mkdtemp(prefix="setup-", dir=scratch)
        try:
            CachedRunner(os.path.join(root, "simcache"), jobs=ZOO_JOBS)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return
    if workload == "strong-sweep":
        import repro.core  # noqa: F401  (the predictors)
    for abbr in STRONG_SPECS if workload == "strong-sweep" else MRC_SPECS:
        get_benchmark(abbr)
    CachedRunner(None, jobs=1)
