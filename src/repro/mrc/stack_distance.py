"""Exact stack-distance profiling (Mattson's LRU stack; Conte et al. [20]).

An access's stack distance is the number of distinct lines touched since
the previous access to its line.  A fully-associative LRU cache of C
lines hits the access iff the distance is below C, so one histogram gives
the misses of *every* capacity, far cheaper than timing simulation.

Distances come from one offline pass over the buffered stream.  For a
reuse pair (p, i), a line touched at p and next at i, each access in
between is either the last touch of its line before i or the start of a
reuse pair nested strictly inside (p, i), so

    distance(i) = (i - p - 1) - #{pairs (p', i') : p < p' and i' < i}.

Listed in end order, a pair's nesting count is the number of earlier
pairs with a larger start: an inversion count, which a bottom-up merge
sort of the starts gathers with two ``np.searchsorted`` calls per level.
That takes O(n log^2 n) time for n accesses, and transient memory of up
to about four times the stream's bytes.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.exceptions import PredictionError

#: Stack distance reported for cold (first-reference) accesses.
COLD = -1


def previous_occurrences(lines: np.ndarray) -> np.ndarray:
    """Position of the previous access to each access's line, or -1."""
    n = len(lines)
    # Merge spans reach 2n, so int32 holds positions below 2**30.
    dtype = np.int32 if n < 2**30 else np.int64
    order = np.argsort(lines, kind="stable").astype(dtype)
    sorted_lines = lines[order]
    repeat = sorted_lines[1:] == sorted_lines[:-1]
    del sorted_lines
    prev = np.full(n, -1, dtype=dtype)
    prev[order[1:][repeat]] = order[:-1][repeat]
    return prev


def _merge(values, left, left_to, right, right_to) -> np.ndarray:
    merged = np.empty_like(values)
    merged[left_to] = values[left]
    merged[right_to] = values[right]
    return merged


def _pair_distances(prev: np.ndarray) -> np.ndarray:
    """Stack distances of the non-cold accesses, ordered by the position
    of their previous access (``prev`` from :func:`previous_occurrences`).
    """
    ends = np.flatnonzero(prev >= 0).astype(prev.dtype)
    starts = prev[ends]
    bound = len(prev)  # exceeds every start: keys stay block-ordered
    del prev
    distances = ends - starts - 1
    del ends
    m = len(starts)
    positions = np.arange(m, dtype=starts.dtype)
    width = 1
    while width < m:
        span = 2 * width
        right = positions % span >= width
        left = ~right
        keys = np.multiply(positions // span, bound, dtype=np.int64)
        keys += starts
        left_keys, right_keys = keys[left], keys[right]
        del keys
        into_right = np.searchsorted(right_keys, left_keys).astype(starts.dtype)
        into_left = np.searchsorted(left_keys, right_keys).astype(starts.dtype)
        del left_keys, right_keys
        into_right += np.arange(len(into_right), dtype=starts.dtype)
        into_left += np.arange(len(into_left), dtype=starts.dtype)
        # A right entry moves left past the left entries nested inside it.
        distances[right] -= positions[right] - into_left
        starts = _merge(starts, left, into_right, right, into_left)
        distances = _merge(distances, left, into_right, right, into_left)
        del left, right, into_left, into_right
        width = span
    return distances


def stack_distances(lines: Iterable[int]) -> np.ndarray:
    """LRU stack distance of every access in ``lines`` (``COLD`` if first)."""
    lines = np.asarray(lines, dtype=np.int64)
    prev = previous_occurrences(lines)
    reused = np.flatnonzero(prev >= 0)
    by_start = reused[np.argsort(prev[reused])]
    del reused
    distances = _pair_distances(prev)
    out = np.full(len(lines), COLD, dtype=np.int64)
    out[by_start] = distances
    return out


class BufferedStream:
    """Line addresses fed by :meth:`access` or :meth:`consume`, buffered
    for one offline :meth:`_pass` that yields a value per non-cold access.

    The first read of a result runs the pass; a read after further
    accesses runs it again.
    """

    def __init__(self) -> None:
        self._lines = array("q")
        self._resolved_length = -1
        self._result: np.ndarray = np.empty(0, dtype=np.int64)

    def access(self, line: int) -> None:
        self._lines.append(line)

    def consume(self, lines: Iterable[int]) -> None:
        self._lines.extend(lines)

    @property
    def accesses(self) -> int:
        return len(self._lines)

    @property
    def cold_misses(self) -> int:
        return self.accesses - len(self._resolve())

    def _pass(self, lines: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _resolve(self) -> np.ndarray:
        if self._resolved_length != len(self._lines):
            self._result = self._pass(np.frombuffer(self._lines, dtype=np.int64))
            self._resolved_length = len(self._lines)
        return self._result


class StackDistanceProfiler(BufferedStream):
    """Exact stack-distance histogram of a buffered reference stream."""

    def _pass(self, lines: np.ndarray) -> np.ndarray:
        """Stack distances of the non-cold accesses, ascending."""
        distances = _pair_distances(previous_occurrences(lines))
        distances.sort()
        return distances

    @property
    def distinct_lines(self) -> int:
        # Every distinct line has exactly one cold (first) access.
        return self.cold_misses

    def histogram(self) -> Dict[int, int]:
        """Stack-distance histogram (cold misses excluded), by distance."""
        distances, counts = np.unique(self._resolve(), return_counts=True)
        return dict(zip(distances.tolist(), counts.tolist()))

    def misses_at(self, capacity_lines: int) -> int:
        """Misses of a fully-associative LRU cache of ``capacity_lines``."""
        return self.miss_curve([capacity_lines])[0]

    def miss_curve(self, capacities_lines: Sequence[int]) -> List[int]:
        """Miss counts at several capacities: the cold accesses plus those
        at a stack distance of at least the capacity."""
        if any(c < 0 for c in capacities_lines):
            raise PredictionError(
                f"capacity must be non-negative, got {list(capacities_lines)}"
            )
        distances = self._resolve()
        hits = np.searchsorted(distances, capacities_lines)
        return [self.accesses - int(h) for h in hits]

    def miss_ratio_at(self, capacity_lines: int) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses_at(capacity_lines) / self.accesses


class MultiCapacityLRU:
    """Exact fully-associative LRU miss counting at a fixed set of
    capacities, in one pass.

    Functionally a restriction of :class:`StackDistanceProfiler` to known
    capacities, built from plain dict operations; the collector's
    ``method="lru"`` uses it as an independent check of the stack pass.
    """

    def __init__(self, capacities_lines: Sequence[int]) -> None:
        if not capacities_lines:
            raise PredictionError("need at least one capacity")
        if any(c < 1 for c in capacities_lines):
            raise PredictionError(f"capacities must be >= 1: {capacities_lines}")
        self.capacities = list(capacities_lines)
        self._lru: List[Dict[int, None]] = [dict() for __ in self.capacities]
        self.misses = [0] * len(self.capacities)
        self.accesses = 0

    def access(self, line: int) -> None:
        self.accesses += 1
        for i, cache in enumerate(self._lru):
            if line in cache:
                del cache[line]
            else:
                self.misses[i] += 1
                if len(cache) >= self.capacities[i]:
                    del cache[next(iter(cache))]
            cache[line] = None

    def consume(self, lines: Iterable[int]) -> None:
        for line in lines:
            self.access(line)

    def miss_curve(self, capacities_lines: Sequence[int]) -> List[int]:
        if list(capacities_lines) != self.capacities:
            raise PredictionError(
                "MultiCapacityLRU can only report its configured capacities"
            )
        return list(self.misses)
