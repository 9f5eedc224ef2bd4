"""Machine-speed gauge: rescales measured times to a reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by a
third or more within seconds (neighbours, frequency). Every timed operation
slows down with it, so run-to-run spreads measured the host, not the program.
The gauge runs a small fixed probe every ``PROBE_INTERVAL_S`` of the run and
expresses each as a slowdown factor against ``REFERENCE_PROBE_S``. A timed
region is then divided by the mean factor of the probes that bracket it and
of those inside it, which turns its wall time into the time it would have
taken at the reference speed.

The probe is pure interpreter work on data it built itself: integer
arithmetic and a walk over a private array of successors. It allocates no
containers, so it never triggers or absorbs a garbage collection of the
program's objects, and it calls nothing in ``skillnet``, so a change to the
program cannot change the probe. Time spent probing inside a timed region is
subtracted from that region.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Iterator, NamedTuple

PROBE_INTERVAL_S = 0.2
# median probe unit on the 2-vCPU host the benchmark was built on (Python 3.11)
REFERENCE_PROBE_S = 0.0020

_ARITH_STEPS = 8000
_WALK_STEPS = 6000
_WALK_NODES = 4096
# three successors per node in one flat array: not a container the cyclic
# garbage collector tracks, so it adds nothing to the program's collections
_WALK = array("H", random.Random(7).choices(range(_WALK_NODES), k=3 * _WALK_NODES))


def probe_unit() -> float:
    """Seconds one probe unit takes now."""
    walk = _WALK
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ARITH_STEPS):
        acc += i * i % 7
    node = 1
    for _ in range(_WALK_STEPS):
        node = walk[3 * node + acc % 3]
        acc += node & 7
    return time.perf_counter() - t0


class Timed(NamedTuple):
    """A measured region: wall seconds without probes, and its probe span."""

    raw: float
    first_probe: int
    last_probe: int


class SpeedGauge:
    """Samples the machine's speed on a timer and rescales timed regions."""

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self.factors: list[float] = []
        self.probe_s = 0.0
        self.paused = False

    def probe(self) -> None:
        t0 = time.perf_counter()
        a, b, c = probe_unit(), probe_unit(), probe_unit()
        # the median of three, without building a container
        unit = a + b + c - max(a, b, c) - min(a, b, c)
        self.factors.append(unit / REFERENCE_PROBE_S)
        self.probe_s += time.perf_counter() - t0

    def _on_alarm(self, signum: int, frame: object) -> None:
        if not self.paused:
            self.probe()

    @contextmanager
    def running(self) -> Iterator["SpeedGauge"]:
        """Probe now, every ``interval`` seconds while the block runs, and at its end.

        The probes come from an interval timer, so they also land inside
        long calls into the program (a checkpoint takes seconds, and the
        machine's speed moves within it). The handler runs between bytecodes
        of the one thread; it starts no thread or process.
        """
        self.probe()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    @contextmanager
    def waiting(self) -> Iterator[None]:
        """No probes while the client waits for a child on its own CPU.

        A probe then would take the CPU from the child it is timing and
        measure the contention it made itself.
        """
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def start(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.probe_s, len(self.factors) - 1

    def stop(self, mark: tuple[float, float, int]) -> Timed:
        after = len(self.factors)  # the index the first probe after the region gets
        end = time.perf_counter()
        t0, probe_s0, before = mark
        return Timed(end - t0 - (self.probe_s - probe_s0), before, after)

    def factor(self, timed: Timed) -> float:
        """Mean slowdown of the probes before, inside and after the region."""
        return statistics.fmean(self.factors[timed.first_probe:timed.last_probe + 1])

    def value(self, timed: Timed) -> float:
        """The region's seconds at the reference speed; only after ``running``."""
        return timed.raw / self.factor(timed)
