"""Machine-speed probe, for timing on a shared host.

On a shared virtual machine the same operation can take twice as long
from one second to the next, while its CPU time still equals its wall time
and no time is stolen: the host's other tenants slow the CPU itself.  A
`SpeedProbe` times a fixed pure-Python snippet every 10 ms of the process's
CPU time (SIGPROF), from inside whatever code is running, so every timed
interval carries samples of the speed it ran at.  `scale(since)` turns
an interval's wall seconds into reference seconds: the time it would have
taken at the speed where the snippet takes `REFERENCE_NS`.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# The snippet's time on an Intel Xeon 2.0 GHz VM (2 vCPU) in its fast state.
REFERENCE_NS = 40_000

_TABLE = dict.fromkeys(range(32), 0)


def snippet_ns() -> int:
    """Time a fixed dict-and-arithmetic loop; it allocates no containers."""
    start = time.perf_counter_ns()
    table = _TABLE
    for i in range(300):
        k = i & 31
        table[k] = (table[k] + i * i) % 1000003
    return time.perf_counter_ns() - start


class SpeedProbe:
    def __init__(self):
        self.samples: list[int] = []
        self._previous = None

    def _on_signal(self, signum, frame):
        self.samples.append(snippet_ns())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Reference over measured speed for the samples taken since `since`.

        An interval too short to hold a sample uses every sample so far,
        and 1.0 stands in before the first sample.
        """
        window = self.samples[since:] or self.samples
        return REFERENCE_NS / statistics.median(window) if window else 1.0
