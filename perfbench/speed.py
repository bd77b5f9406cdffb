"""Machine-speed probe, for timings that do not drift with the machine.

On a shared machine the speed of a core drifts by 20-50 % over tens of
seconds, and none of it shows as steal time: on a 2-core machine the same
`asym --sweep` pass took 12.5 s to 18.6 s in five consecutive runs.  The
probe runs a fixed, allocation-free interpreter loop from a SIGALRM handler
every PERIOD_S on the main thread, so it sees the same core at the same
moments as the work it times.  A time measured over an interval is scaled
by REF_PROBE_S over the mean probe time in that interval: the result is in
seconds of a machine on which the probe takes REF_PROBE_S.

Python runs the handler between bytecodes, so a probe that falls inside a
long call into native code waits for it to return; such intervals are
covered by the probes around them.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import repeat

PERIOD_S = 0.05
LOOPS = 4000
#: Probe time on a quiet 2-core machine (Python 3.11); it sets the unit only.
REF_PROBE_S = 2.0e-4


class SpeedProbe:
    """Samples (start, duration) of the probe loop while started."""

    def __init__(self) -> None:
        self.samples: list = []

    def _probe(self, signum, frame) -> None:
        t = time.perf_counter()
        s = 0
        for _ in repeat(None, LOOPS):
            s = (s * 5 + 1) & 255
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, begin: float, end: float) -> float:
        """Factor that turns seconds measured in [begin, end] into reference seconds."""
        inside = [d for t, d in self.samples if begin <= t <= end]
        return REF_PROBE_S / statistics.mean(inside or [d for _, d in self.samples])
