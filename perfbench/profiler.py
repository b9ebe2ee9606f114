"""Low-overhead observation from outside the program: a reference clock
for the untraced run, and a sampling profiler and coarse spans for the
traced run.

The reference clock times a fixed pure-Python loop every 20 ms of wall
time while a point runs.  On a shared box the host's speed swings by
1.5x within seconds, and for minutes at a time, so raw wall time spreads
by 12-28% from run to run.  The point's wall time divided by the
harmonic mean of the loop times measured over the same interval cancels
most of that swing.

The sampler arms ``signal.setitimer(ITIMER_PROF)``; each tick charges
the innermost frame that belongs to ``src/repro`` to its module
(``repro/sim/kernel.py`` -> ``sim.kernel``).  Frames of the standard
library or of the benchmark are skipped, so a ``heapq`` or ``random``
call is charged to the repro module that made it.  Nothing wraps a
per-event function: cProfile cost 4-5x here and skewed the split.

Spans wrap the public calls the benchmark makes (``build_app``,
``get_profiles``, ``run_experiment``) and the three ``Simulator.run``
calls of a closed-loop point (ramp-up, measure, ramp-down).
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Sampling interval in CPU seconds.
INTERVAL_S = 0.001

OTHER = "<outside repro>"

#: Reference-clock interval in wall seconds; one loop takes ~0.1 ms, so
#: the clock costs about 0.5% of the run.
REFERENCE_INTERVAL_S = 0.02
_REFERENCE_TABLE = dict.fromkeys(range(64), 0)


def _reference_loop() -> int:
    # Allocates no container, so it never triggers the cyclic collector.
    table = _REFERENCE_TABLE
    total = 0
    for i in range(400):
        table[i & 63] = i
        total += table[(i >> 2) & 63]
    return total


class ReferenceClock:
    """Times the reference loop at a fixed wall-time interval while a
    block runs."""

    def __init__(self):
        self.samples: List[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        # The sampler's own ticks wait until the loop is timed, so its
        # cost is not mistaken for a slow host.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    @contextmanager
    def running(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S,
                         REFERENCE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()  # a block shorter than one interval has a sample

    def harmonic_mean_s(self) -> float:
        """Harmonic mean of the loop times.

        Work done over an interval is proportional to the time integral
        of the host's speed, and the speed is the inverse of the loop
        time, so ``wall / harmonic_mean_s()`` counts the reference loops
        the host could have run in that wall time.  A loop the host
        preempted reads 10-30x its usual ~0.1 ms and so adds almost
        nothing, which is also right: the block stalled too."""
        return statistics.harmonic_mean(self.samples)


class Sampler:
    """Counts samples per repro module, split by benchmark phase.

    Ticks that land in the reference clock are charged to ``OTHER``, not
    to the repro frame the clock interrupted."""

    _CLOCK_CODES = (_reference_loop.__code__, ReferenceClock._tick.__code__)

    def __init__(self, repro_dir: str):
        self._prefix = os.path.join(os.path.abspath(repro_dir), "")
        self._modules: Dict[str, Optional[str]] = {}
        self.samples: Dict[str, Counter] = {}
        self._current: Optional[Counter] = None
        self.wall_s: Dict[str, float] = {}

    def _module_of(self, filename: str) -> Optional[str]:
        module = self._modules.get(filename, "")
        if module == "":
            module = None
            if filename.startswith(self._prefix):
                module = filename[len(self._prefix):-len(".py")] \
                    .replace(os.sep, ".")
            self._modules[filename] = module
        return module

    def _tick(self, signum, frame) -> None:
        counter = self._current
        if counter is None:
            return
        while frame is not None:
            if frame.f_code in self._CLOCK_CODES:
                break
            module = self._module_of(frame.f_code.co_filename)
            if module is not None:
                counter[module] += 1
                return
            frame = frame.f_back
        counter[OTHER] += 1

    @contextmanager
    def phase(self, name: str):
        """Sample while the block runs, charging ticks to ``name``."""
        self._current = self.samples.setdefault(name, Counter())
        previous = signal.signal(signal.SIGPROF, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            self.wall_s[name] = (self.wall_s.get(name, 0.0)
                                 + time.perf_counter() - start)
            signal.signal(signal.SIGPROF, previous)
            self._current = None

    def self_seconds(self, phase: str) -> Dict[str, float]:
        """Per-module self time: the phase's wall time split by the share
        of samples each module took."""
        counter = self.samples.get(phase, Counter())
        total = sum(counter.values())
        wall = self.wall_s.get(phase, 0.0)
        return {module: wall * n / total for module, n in counter.items()} \
            if total else {}


def layer_seconds(self_s: Dict[str, float], layer: str) -> float:
    """Self time of a layer: the module itself or any module under it."""
    return sum(seconds for module, seconds in self_s.items()
               if module == layer or module.startswith(layer + "."))


class Spans:
    """Named intervals with parents, kept in memory for the run record."""

    def __init__(self):
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        record = {"name": name, "parent": self._stack[-1]
                  if self._stack else None, "start": time.perf_counter()}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and "end" in r)


@contextmanager
def patched(owner, attribute: str, wrap):
    """Replace ``owner.attribute`` by ``wrap(original)`` for the block."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)
