"""Trace serialization: save/load workload traces as ``.npz`` bundles.

The paper's artifact distributes pre-collected traces and results so the
prediction step can run without re-simulation; this module provides the
same capability for this repository's traces.  A saved trace is a single
compressed ``.npz`` holding every kernel's :class:`~repro.trace.kernel.CTAStore`
columns back to back (per-warp lengths and per-CTA warp counts in place
of the store's end offsets), and loads back into a
:class:`~repro.trace.kernel.WorkloadTrace` whose kernels come with full
stores (no re-generation, identical replay).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.exceptions import TraceError
from repro.trace.kernel import CTAStore, KernelTrace, WorkloadTrace

FORMAT_VERSION = 1


def _column(store: CTAStore, name: str) -> np.ndarray:
    column = getattr(store, name)
    return np.frombuffer(column, dtype=column.typecode)


def save_trace(workload: WorkloadTrace, path: str) -> None:
    """Write every CTA of ``workload`` to ``path`` as store columns.

    A kernel whose store is full is written from it; any other kernel is
    stored into a new store for the write, its own store left as it was.
    """
    stores = [kernel.full_store() for kernel in workload.kernels]

    def joined(name: str) -> np.ndarray:
        return np.concatenate([_column(store, name) for store in stores])

    header = {
        "version": FORMAT_VERSION,
        "name": workload.name,
        "footprint_bytes": workload.footprint_bytes,
        "metadata": _jsonable(workload.metadata),
        "kernels": [
            {
                "name": kernel.name,
                "num_ctas": kernel.num_ctas,
                "threads_per_cta": kernel.threads_per_cta,
            }
            for kernel in workload.kernels
        ],
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        lines=joined("lines"),
        compute=joined("compute"),
        warp_lengths=np.concatenate(
            [np.diff(_column(s, "warp_ends"), prepend=0) for s in stores]
        ),
        warp_tails=joined("warp_tails"),
        warp_offsets=joined("warp_offsets"),
        cta_warp_counts=np.concatenate(
            [np.diff(_column(s, "cta_warp_ends"), prepend=0) for s in stores]
        ),
    )


def load_trace(path: str) -> WorkloadTrace:
    """Load a trace bundle written by :func:`save_trace`."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode())
        if header.get("version") != FORMAT_VERSION:
            raise TraceError(
                f"{path}: unsupported trace format version "
                f"{header.get('version')!r}"
            )
        lines = data["lines"]
        compute = data["compute"]
        warp_lengths = data["warp_lengths"]
        warp_tails = data["warp_tails"]
        warp_offsets = data["warp_offsets"]
        cta_warp_counts = data["cta_warp_counts"]

    # Offset of each warp's first access and of each CTA's first warp,
    # with one past-the-end entry.
    line_at = np.concatenate(([0], np.cumsum(warp_lengths)))
    warp_at = np.concatenate(([0], np.cumsum(cta_warp_counts)))
    num_ctas = [int(meta["num_ctas"]) for meta in header["kernels"]]
    if sum(num_ctas) != len(cta_warp_counts):
        raise TraceError(
            f"{path}: header lists {sum(num_ctas)} CTAs, arrays hold "
            f"{len(cta_warp_counts)}"
        )

    kernels = []
    c0 = 0
    for meta, count in zip(header["kernels"], num_ctas):
        c1 = c0 + count
        w0, w1 = int(warp_at[c0]), int(warp_at[c1])
        a0, a1 = int(line_at[w0]), int(line_at[w1])
        store = CTAStore.from_arrays(
            lines[a0:a1],
            compute[a0:a1],
            line_at[w0 + 1 : w1 + 1] - a0,
            warp_tails[w0:w1],
            warp_offsets[w0:w1],
            warp_at[c0 + 1 : c1 + 1] - w0,
        )
        kernels.append(
            KernelTrace(
                name=meta["name"],
                num_ctas=count,
                threads_per_cta=int(meta["threads_per_cta"]),
                build_cta=store.cta,
                store=store,
            )
        )
        c0 = c1

    metadata = dict(header.get("metadata", {}))
    warm = metadata.get("warm_region")
    if warm is not None:
        metadata["warm_region"] = tuple(warm)
    return WorkloadTrace(
        name=header["name"],
        kernels=kernels,
        footprint_bytes=int(header.get("footprint_bytes", 0)),
        metadata=metadata,
    )


def _jsonable(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, (str, int, float, bool, list)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def trace_digest(workload: WorkloadTrace) -> str:
    """``sha256:<hex>`` over the full materialized trace content.

    Walks every CTA of every kernel (stored CTAs from the store, the
    rest generated and not retained) and hashes the exact per-warp
    line/compute streams plus tails and launch offsets.  Two traces digest equally iff a simulator would
    replay identical streams — the determinism contract of
    :func:`repro.workloads.generators.build_trace` made checkable
    across processes and hosts.
    """
    hasher = hashlib.sha256()
    for kernel in workload.kernels:
        hasher.update(
            repr((kernel.name, kernel.num_ctas, kernel.threads_per_cta)).encode()
        )
        for cta in kernel.iter_ctas():
            for warp in cta.warps:
                hasher.update(np.asarray(warp.lines, dtype=np.int64).tobytes())
                hasher.update(np.asarray(warp.compute, dtype=np.int64).tobytes())
                hasher.update(
                    repr((warp.tail_compute, warp.start_offset)).encode()
                )
    return "sha256:" + hasher.hexdigest()
