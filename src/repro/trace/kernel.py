"""Trace data types: warp, CTA, kernel and workload."""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import TraceError

#: One warp as the timing simulator reads it:
#: ``(compute, lines, tail_compute, start_offset)``.
WarpColumns = Tuple[List[int], List[int], int, float]


def instruction_count(compute: int, accesses: int, tail: int) -> int:
    """Total warp instructions: compute bursts + memory instructions.

    ``compute`` and ``tail`` are summed compute bursts and tail compute,
    ``accesses`` the number of memory accesses, of one warp or several.
    """
    return compute + accesses + tail


@dataclass
class WarpTrace:
    """The execution trace of one warp.

    ``compute[i]`` warp instructions execute before memory access ``i``
    touches line ``lines[i]``; ``tail_compute`` warp instructions run after
    the final access.  All counts are *warp* instructions (multiply by the
    threads-per-warp of the machine to get thread instructions).

    ``start_offset`` is a launch delay in cycles before the warp issues its
    first instruction (scheduler and launch-overhead stagger).  It executes
    no instructions and is invisible to functional (MRC) replay.
    """

    compute: List[int]
    lines: List[int]
    tail_compute: int = 0
    start_offset: float = 0.0

    def __post_init__(self) -> None:
        if len(self.compute) != len(self.lines):
            raise TraceError(
                f"compute ({len(self.compute)}) and lines ({len(self.lines)}) "
                "must have equal length"
            )
        if self.tail_compute < 0:
            raise TraceError(f"tail_compute must be >= 0, got {self.tail_compute}")
        if self.start_offset < 0:
            raise TraceError(f"start_offset must be >= 0, got {self.start_offset}")

    @property
    def num_accesses(self) -> int:
        return len(self.lines)

    @property
    def warp_instructions(self) -> int:
        return instruction_count(sum(self.compute), len(self.lines), self.tail_compute)


@dataclass
class CTATrace:
    """One cooperative thread array: a list of warp traces."""

    cta_id: int
    warps: List[WarpTrace]

    def __post_init__(self) -> None:
        if not self.warps:
            raise TraceError(f"CTA {self.cta_id} has no warps")

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def warp_instructions(self) -> int:
        return sum(w.warp_instructions for w in self.warps)

    @property
    def num_accesses(self) -> int:
        return sum(w.num_accesses for w in self.warps)


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return int(value)
        raise TraceError(f"invalid {what} {value!r} (need an integer)") from None


def _extend(column: array, values: Sequence, what: str) -> None:
    """Append ``values`` to an int64 ``column``, exactly or not at all."""
    try:
        try:
            column.fromlist(values)
        except TypeError:  # not a list, or a list holding non-ints
            column.fromlist([_integer(value, what) for value in values])
    except OverflowError:
        raise TraceError(f"{what} out of int64 range") from None


class CTAStore:
    """The CTAs of one kernel in columns, appended in CTA-id order.

    The layout is the one :mod:`repro.trace.io` writes: flat int64
    ``lines`` and ``compute`` over every warp of every stored CTA; per
    warp the exclusive end offset into them (``warp_ends``), the tail
    compute and the launch offset; per CTA the exclusive end index into
    the per-warp columns (``cta_warp_ends``).  Storing a CTA costs about
    16 bytes per access, against several Python objects per access for
    a kept :class:`CTATrace`.
    """

    __slots__ = (
        "lines", "compute", "warp_ends", "warp_tails", "warp_offsets",
        "cta_warp_ends",
    )

    def __init__(self) -> None:
        self.lines = array("q")
        self.compute = array("q")
        self.warp_ends = array("q")
        self.warp_tails = array("q")
        self.warp_offsets = array("d")
        self.cta_warp_ends = array("q")

    @classmethod
    def from_arrays(cls, *columns: np.ndarray) -> "CTAStore":
        """A filled store over copies of ``columns``, in ``__slots__`` order."""
        store = cls()
        for name, values in zip(cls.__slots__, columns):
            column = getattr(store, name)
            column.frombytes(
                np.ascontiguousarray(values, dtype=column.typecode).tobytes()
            )
        return store

    def __len__(self) -> int:
        return len(self.cta_warp_ends)

    def append(self, cta: CTATrace) -> None:
        """Store ``cta`` as CTA ``len(self)``.

        A value that is not an exact integer raises :class:`TraceError`
        and leaves the store as it was.
        """
        columns = (
            self.lines, self.compute, self.warp_ends, self.warp_tails,
            self.warp_offsets,
        )
        marks = [len(column) for column in columns]
        for warp_id, warp in enumerate(cta.warps):
            try:
                _extend(self.lines, warp.lines, "line address")
                _extend(self.compute, warp.compute, "compute burst")
                _extend(self.warp_tails, [warp.tail_compute], "tail compute")
            except TraceError as error:
                for column, mark in zip(columns, marks):
                    del column[mark:]
                raise TraceError(f"CTA {cta.cta_id} warp {warp_id}: {error}") from None
            self.warp_offsets.append(warp.start_offset)
            self.warp_ends.append(len(self.lines))
        self.cta_warp_ends.append(len(self.warp_ends))

    def _bounds(self, cta_id: int) -> Tuple[int, int, int, int]:
        """``(first_warp, end_warp, first_access, end_access)`` of a CTA."""
        if not 0 <= cta_id < len(self.cta_warp_ends):
            raise TraceError(
                f"CTA {cta_id} is not stored (store holds "
                f"{len(self.cta_warp_ends)})"
            )
        first = self.cta_warp_ends[cta_id - 1] if cta_id else 0
        end = self.cta_warp_ends[cta_id]
        start = self.warp_ends[first - 1] if first else 0
        return first, end, start, self.warp_ends[end - 1]

    def warps(self, cta_id: int) -> List[WarpColumns]:
        """CTA ``cta_id``'s warps as list slices of the columns."""
        first, end, start, stop = self._bounds(cta_id)
        lines = self.lines[start:stop].tolist()
        compute = self.compute[start:stop].tolist()
        warps = []
        lo = 0
        for w in range(first, end):
            hi = self.warp_ends[w] - start
            warps.append(
                (compute[lo:hi], lines[lo:hi], self.warp_tails[w],
                 self.warp_offsets[w])
            )
            lo = hi
        return warps

    def line_arrays(self, cta_id: int) -> Tuple[List[np.ndarray], int]:
        """CTA ``cta_id``'s per-warp int64 line arrays and warp instructions.

        The arrays view a copy of the CTA's slice, never the columns
        themselves: an exported buffer would stop the store growing.
        """
        first, end, start, stop = self._bounds(cta_id)
        lines = np.frombuffer(self.lines[start:stop], dtype=np.int64)
        compute = np.frombuffer(self.compute[start:stop], dtype=np.int64)
        warp_lines = []
        lo = 0
        for w in range(first, end):
            hi = self.warp_ends[w] - start
            warp_lines.append(lines[lo:hi])
            lo = hi
        instructions = instruction_count(
            int(compute.sum()), len(lines), sum(self.warp_tails[first:end])
        )
        return warp_lines, instructions

    def cta(self, cta_id: int) -> CTATrace:
        """CTA ``cta_id`` rebuilt from the columns."""
        return CTATrace(
            cta_id,
            [
                WarpTrace(compute, lines, tail_compute=tail, start_offset=offset)
                for compute, lines, tail, offset in self.warps(cta_id)
            ],
        )


@dataclass
class KernelTrace:
    """A kernel launch: a grid of ``num_ctas`` CTAs.

    ``build_cta`` generates CTA ``cta_id`` and must be deterministic in
    it.  ``store`` keeps generated CTAs in columns (:class:`CTAStore`),
    filled in CTA-id order while ``storing`` is set, so a trace that is
    replayed many times generates each CTA once:

    * :meth:`warps` serves the timing simulator and
      :func:`repro.validate.validate_trace`: a stored CTA comes from the
      store; otherwise, while ``storing``, the store is filled up to the
      CTA, and else the CTA is generated and not kept;
    * :meth:`cta`, :meth:`iter_ctas` and :meth:`line_arrays` (the MRC
      collector) read stored CTAs and generate the rest without storing.

    ``storing`` starts unset: :func:`repro.workloads.generators.build_trace`
    sets it when it hands the same trace out again, so a trace used once
    (each size of a weak-scaling sweep, an MRC-only workload) keeps no
    CTAs.  A loaded trace (:func:`repro.trace.io.load_trace`) comes with
    a full store.  Every accessor rejects ``cta_id`` outside
    ``[0, num_ctas)``.
    """

    name: str
    num_ctas: int
    threads_per_cta: int
    build_cta: Callable[[int], CTATrace]
    store: CTAStore = field(default_factory=CTAStore, repr=False, compare=False)
    storing: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_ctas < 1:
            raise TraceError(f"kernel {self.name}: num_ctas must be >= 1")
        if self.threads_per_cta < 1:
            raise TraceError(f"kernel {self.name}: threads_per_cta must be >= 1")

    @property
    def warps_per_cta(self) -> int:
        return max(1, self.threads_per_cta // 32)

    def _stored(self, cta_id: int) -> bool:
        """Whether CTA ``cta_id`` (checked for range) is in the store."""
        if not 0 <= cta_id < self.num_ctas:
            raise TraceError(
                f"kernel {self.name}: cta_id {cta_id} outside "
                f"[0, {self.num_ctas})"
            )
        return cta_id < len(self.store)

    def warps(self, cta_id: int) -> List[WarpColumns]:
        """CTA ``cta_id``'s warps, stored first while ``storing``."""
        if not self._stored(cta_id) and not self.storing:
            return [
                (w.compute, w.lines, w.tail_compute, w.start_offset)
                for w in self.build_cta(cta_id).warps
            ]
        store = self.store
        while len(store) <= cta_id:
            try:
                store.append(self.build_cta(len(store)))
            except TraceError as error:
                raise TraceError(f"{self.name}: {error}") from None
        return store.warps(cta_id)

    def cta(self, cta_id: int) -> CTATrace:
        """CTA ``cta_id``: from the store when stored, else generated."""
        if self._stored(cta_id):
            return self.store.cta(cta_id)
        return self.build_cta(cta_id)

    def line_arrays(self, cta_id: int) -> Tuple[List[np.ndarray], int]:
        """CTA ``cta_id``'s per-warp int64 line arrays and warp instructions.

        Read from the store when stored, else generated and not stored.
        """
        if self._stored(cta_id):
            return self.store.line_arrays(cta_id)
        cta = self.build_cta(cta_id)
        warp_lines = [np.asarray(w.lines, dtype=np.int64) for w in cta.warps]
        return warp_lines, cta.warp_instructions

    def full_store(self) -> CTAStore:
        """A store of every CTA: ``store`` when full, else a new one.

        The kernel's own store is left as it was.
        """
        if len(self.store) == self.num_ctas:
            return self.store
        store = CTAStore()
        for cta in self.iter_ctas():
            store.append(cta)
        return store

    def iter_ctas(self) -> Iterator[CTATrace]:
        for cta_id in range(self.num_ctas):
            yield self.cta(cta_id)


@dataclass
class WorkloadTrace:
    """A full benchmark run: kernels executed back to back."""

    name: str
    kernels: List[KernelTrace]
    footprint_bytes: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kernels:
            raise TraceError(f"workload {self.name} has no kernels")

    @property
    def num_ctas(self) -> int:
        return sum(k.num_ctas for k in self.kernels)

    def count_instructions(self, threads_per_warp: int = 32) -> int:
        """Total thread instructions; walks every CTA (use on small traces)."""
        total = 0
        for kernel in self.kernels:
            for cta in kernel.iter_ctas():
                total += cta.warp_instructions
        return total * threads_per_warp

    def count_accesses(self) -> int:
        """Total warp-level memory accesses; walks every CTA."""
        total = 0
        for kernel in self.kernels:
            for cta in kernel.iter_ctas():
                total += cta.num_accesses
        return total

    def iter_accesses(self) -> Iterator[int]:
        """All line addresses in CTA-then-warp program order.

        This is the *unshuffled* stream; the MRC collector applies its own
        interleaving model (see :mod:`repro.mrc.interleave`).
        """
        for kernel in self.kernels:
            for cta in kernel.iter_ctas():
                for warp in cta.warps:
                    for line in warp.lines:
                        yield line
