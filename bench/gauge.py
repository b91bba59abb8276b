"""Machine-speed gauge for timed calls.

On a shared machine the same work can take up to half again as long from
one half-minute to the next.  While the gauge runs, a timer signal
interrupts the process every ``INTERVAL_S`` seconds to time a short,
fixed slice of interpreter work (the probe).  Between two probes, time
runs on a scaled clock at ``REFERENCE_PROBE_S`` over the earlier probe's
time, so a block's scaled seconds estimate its time on a machine
whose probe takes ``REFERENCE_PROBE_S``.  Time spent probing counts on
neither clock.  The signal handler runs on the main thread between
bytecodes; the process starts no thread.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

REFERENCE_PROBE_S = 0.005
PROBE_ITERATIONS = 20000
INTERVAL_S = 0.25


def probe() -> float:
    """Seconds for a fixed slice of interpreter work."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(PROBE_ITERATIONS):
        acc += math.sqrt((i % 97) * 0.5 + 1.0)
        table[i & 255] = acc
    return time.perf_counter() - start


@dataclass
class Timing:
    """Accumulated wall seconds and the same seconds at reference speed."""

    wall: float = 0.0
    scaled: float = 0.0


class Gauge:
    """A wall clock and a speed-scaled clock that both skip probe time.

    Stopped, the scaled clock runs at the wall clock's rate.
    """

    def __init__(self) -> None:
        self.running = False
        self.probes = 0
        self.probe_sum_s = 0.0
        self._probe_wall = 0.0
        self._scaled = 0.0
        self._mark = time.perf_counter()
        self._reading = REFERENCE_PROBE_S

    def start(self) -> None:
        """Take a first reading and probe every ``INTERVAL_S`` from now on."""
        self._advance()
        self._reading = self._timed_probe()
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._advance()
        self.running = False

    def _timed_probe(self) -> float:
        start = time.perf_counter()
        reading = probe()
        self._mark = time.perf_counter()
        self._probe_wall += self._mark - start
        self.probes += 1
        self.probe_sum_s += reading
        return reading

    def _advance(self) -> float:
        """Run the scaled clock up to now at the latest reading's speed."""
        now = time.perf_counter()
        rate = REFERENCE_PROBE_S / self._reading if self.running else 1.0
        self._scaled += (now - self._mark) * rate
        self._mark = now
        return now

    def _tick(self, signum=None, frame=None) -> None:
        self._advance()
        self._reading = self._timed_probe()

    def clocks(self) -> tuple[float, float]:
        """(wall, scaled) seconds now, both without probe time."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = self._advance()
            return now - self._probe_wall, self._scaled
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @contextmanager
    def time(self, timing: Timing):
        """Add the block's wall and scaled seconds to ``timing``."""
        wall, scaled = self.clocks()
        try:
            yield
        finally:
            wall_end, scaled_end = self.clocks()
            timing.wall += wall_end - wall
            timing.scaled += scaled_end - scaled
