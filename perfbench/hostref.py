"""A fixed reference kernel that measures how fast the host runs while a
run executes.

On a shared machine a run's wall time drifts by tens of percent (see
NOTES.md): each vCPU flips between a fast and a slow level, about 1.7 times
slower, within a second or two and independently of the other vCPU. So the
kernel is timed inside the run: while a run process executes the workload,
a SIGALRM handler times the kernel every INTERVAL_S seconds of wall time.
The run's time, minus the time spent in the handler, is scaled by
REF_S / (mean kernel time): it is reported at the speed of a host on which
the kernel takes REF_S seconds. The set-up time is scaled by the kernel
timed right after the imports. The kernel uses no icnsim code, so a change
to the simulator moves the scaled times as much as the wall times.

The kernel has three parts, one for each kind of work the workloads mix:
interpreter dict and set traffic, allocation of small objects, and first
touches of fresh memory pages (a quarter of an mMTC run is page faults).
Each tick calls it twice and times the second call, so the program's own
use of the caches does not move the reference.
"""

import mmap
import signal
import statistics
import time

REF_S = 0.0025    # about the kernel's time on the 2-vCPU VM it was tuned on
INTERVAL_S = 0.1  # wall time between two ticks while a run executes
CALLS = 20        # timed calls right after the imports
PAGES = b"\1" * (1 << 20)


def kernel() -> int:
    """Dict and set traffic, 2,000 new strings, 1 MiB of fresh pages.
    Only two containers the cyclic garbage collector tracks are created,
    so a call does not trigger a collection over the program's objects."""
    table, seen = {}, set()
    for i in range(5_000):
        key = (i * 2654435761) & 0x1FF
        if key in seen:
            table[key] = table.get(key, 0) + i
        else:
            seen.add(key)
    strings = [str(i) for i in range(2_000)]
    with mmap.mmap(-1, len(PAGES)) as block:
        block.write(PAGES)
    return len(table) + len(strings)


def _timed() -> float:
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_s() -> float:
    """Mean time of CALLS kernel calls in a row."""
    return statistics.fmean(_timed() for _ in range(CALLS))


class Sampler:
    """Times the kernel every INTERVAL_S seconds while the with-block runs.

    `run_s` is the block's wall time minus the time spent in the ticks, and
    `reference_s()` the mean kernel time over the ticks.
    """

    def __init__(self):
        self.times = []
        self.spent_s = 0.0
        self.run_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(_timed())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.run_s = time.perf_counter() - self._started - self.spent_s
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self) -> float:
        """Mean kernel time over the ticks; a run shorter than one interval
        is given CALLS calls after it."""
        return statistics.fmean(self.times) if self.times else reference_s()
