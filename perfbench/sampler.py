"""A sampling profiler that charges wall time to ``repro`` modules.

It lives in the benchmark process and adds nothing to ``src/``.  A
wall-clock interval timer (``SIGALRM``) interrupts the main thread
every :data:`INTERVAL_S`; the handler charges the time since the
previous sample to the innermost frame of the interrupted stack whose
module belongs to ``repro``.  A C call finishes before the handler
runs, so C builtins, NumPy and the standard library land on the
``repro`` module that called them; time with no ``repro`` frame on the
stack (the benchmark's own code) is unattributed.  It costs about 1% of
wall time, where a deterministic profiler (``cProfile``) costs 2-2.5x
on this code and skews shares toward call-heavy functions.  Pool
workers forked during a pass do not inherit the timer, so their time
shows as the parent's wait on the pool.
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict
from typing import Dict, Optional

#: Sampling interval, seconds.
INTERVAL_S = 0.001


class Sampler:
    """Wall-clock stack sampler charging time to ``repro`` modules."""

    def __init__(self) -> None:
        self.by_module: Dict[str, float] = defaultdict(float)
        self.unattributed_s = 0.0
        self.samples = 0
        self.wall_s = 0.0
        self._module_of: Dict[object, Optional[str]] = {}
        self._previous = None
        self._started = self._last = 0.0

    def __enter__(self) -> "Sampler":
        self._started = self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        now = time.perf_counter()
        self.unattributed_s += now - self._last
        self.wall_s = now - self._started

    def _on_alarm(self, signum, frame) -> None:
        now = time.perf_counter()
        self._charge(frame, now - self._last)
        self._last = now

    def _charge(self, frame, elapsed: float) -> None:
        self.samples += 1
        while frame is not None:
            code = frame.f_code
            module = self._module_of.get(code, "")
            if module == "":
                name = frame.f_globals.get("__name__", "")
                module = name if name.startswith("repro.") else None
                self._module_of[code] = module
            if module is not None:
                self.by_module[module] += elapsed
                return
            frame = frame.f_back
        self.unattributed_s += elapsed

    def share(self, prefix: str) -> float:
        """Share of the profiled wall charged to modules under ``prefix``
        (a module name or a package name)."""
        if self.wall_s <= 0:
            return 0.0
        total = sum(
            seconds
            for module, seconds in self.by_module.items()
            if module == prefix or module.startswith(prefix + ".")
        )
        return total / self.wall_s
