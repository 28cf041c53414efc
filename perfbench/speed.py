"""Machine-speed sampling for pass times that hold still on a shared host.

On a VM whose cores are shared with other tenants the CPU's speed drifts:
on a 2-vCPU Xeon VM the same pass took 2.3 s in one minute and 3.5 s in
the next, and its CPU time moved with it, so neither wall nor CPU seconds
can hold a 25% bound from one set of runs to the next.

A `SpeedSampler` times a fixed burst of plain-Python work (dict reads and
writes, small-int arithmetic; about 80 us) from a SIGALRM handler every
20 ms while a pass runs.  The bursts see the machine at the same moments
as the pass, so the pass's own time divided by the mean burst time of that
pass cancels the drift: on that VM the quartile spread of pass times fell
from 17-31% in wall seconds to about 5% in burst units.  The bursts take
under 1% of a pass and are subtracted from its time.

The burst creates no object the garbage collector tracks, so a collection
of the workload's heap never lands inside a burst.  A signal handler runs
between bytecodes, so during a long numpy call the next burst waits for it
to return; the timer does not queue missed bursts.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

BURST_STEPS = 300
INTERVAL_S = 0.02
WARMUP_BURSTS = 50

_TABLE = dict.fromkeys(range(32), 0)


def burst() -> int:
    """The fixed unit of work whose time measures the machine's speed."""
    table = _TABLE
    s = 0
    for i in range(BURST_STEPS):
        s += (i * 7) % 13
        table[i & 31] = table.get(i & 31, 0) ^ s
    return s


class SpeedSampler:
    """Times `burst()` every INTERVAL_S seconds while it is entered."""

    def __init__(self):
        self.bursts: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        burst()
        self.bursts.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        for _ in range(WARMUP_BURSTS):
            burst()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """Burst times recorded since the last take."""
        taken, self.bursts = self.bursts, []
        return taken

    def timed(self, body) -> tuple[float, float, float]:
        """Run body(); return its wall time, its CPU time and its mean burst time.

        The heap is collected first, so each pass starts from the same state.
        Burst time inside the pass is taken out of both.  A pass too short
        to be sampled gets one burst timed right after it.
        """
        gc.collect()
        self.take()
        w0, c0 = time.perf_counter(), time.process_time()
        body()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        bursts = self.take()
        in_pass = sum(bursts)
        if not bursts:
            self._handler(None, None)
            bursts = self.take()
        return wall - in_pass, cpu - in_pass, statistics.fmean(bursts)
