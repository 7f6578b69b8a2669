"""Reference seconds: wall time rescaled by how fast the CPU runs meanwhile.

The benchmark's host lends it shared CPUs whose speed changes by up to
about 2x as other tenants come and go, in stretches from under a second
to many minutes, so plain wall times of the same work spread by more than
any useful bound. While the program runs, a signal timer interrupts it
every PERIOD seconds to time a fixed reference kernel: small numpy
products in a Python loop, like hetsim's own inner loops, which slow down
by about the same factor. Each stretch of program time between two
samples counts as its wall seconds times REF_SECONDS over the kernel's
mean time at the two ends. The kernel's own time counts for nothing.

REF_SECONDS is what one kernel call takes on an unloaded core of the
2-vCPU Intel Xeon host the benchmark was written on, so there, with no
other tenant busy, reference seconds read close to wall seconds. On any
host a change that makes the program do less work lowers them by the same
share as it lowers wall time, as long as the kernel is left alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05        # seconds between samples of the kernel
REF_SECONDS = 5e-4   # one kernel call on an unloaded core of the host above
_KERNEL_STEPS = 150
_A = np.random.default_rng(0).standard_normal((20, 20))
_X = np.ones(20)


def reference_kernel() -> None:
    y = _X
    for _ in range(_KERNEL_STEPS):
        y = _A @ _X + y * 0.5
        y.sum()


def kernel_seconds(calls: int = 9) -> float:
    """Median wall time of `calls` back-to-back kernel calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ReferenceClock:
    """Samples the kernel while sampling is on, and marks call sites.

    Marks store plain perf_counter times; `reference_times` converts them
    afterwards, when the samples on both sides of each mark are known.
    Use only from the main thread, which is where Python runs signal
    handlers.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.entries: list[float] = []   # kernel sample k ran from entries[k]
        self.exits: list[float] = []     # to exits[k]
        self.sites: list[str] = []
        self.stamps: list[float] = []
        self._saved_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.entries.append(t0)
        self.exits.append(time.perf_counter())

    def __enter__(self) -> "ReferenceClock":
        self._sample()
        self._saved_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self._sample()

    def mark(self, site: str) -> None:
        self.sites.append(site)
        self.stamps.append(time.perf_counter())

    def marker(self, site: str):
        """Wrapper factory: mark each call's start."""
        def make(func):
            def wrapper(*args, **kwargs):
                self.mark(site)
                return func(*args, **kwargs)
            return wrapper
        return make

    def bracket(self, site: str):
        """Wrapper factory: mark each call's start as `site` and its end as `site.end`."""
        def make(func):
            def wrapper(*args, **kwargs):
                self.mark(site)
                try:
                    return func(*args, **kwargs)
                finally:
                    self.mark(site + ".end")
            return wrapper
        return make

    def kernel_factor(self) -> float:
        """Median kernel time over REF_SECONDS: how much slower than unloaded the CPU ran."""
        return statistics.median(b - a for a, b in zip(self.entries, self.exits)) / REF_SECONDS

    def reference_times(self, stamps: list[float]) -> list[float]:
        """Each perf_counter time as reference seconds since the first sample ended.

        Every stamp must lie between the first and the last sample.
        """
        ref = [b - a for a, b in zip(self.entries, self.exits)]
        # reference seconds at the end of each sample
        at_exit = [0.0]
        for k in range(1, len(ref)):
            gap = self.entries[k] - self.exits[k - 1]
            at_exit.append(at_exit[-1] + gap * REF_SECONDS * 2.0 / (ref[k - 1] + ref[k]))
        out = []
        for t in stamps:
            k = bisect.bisect_right(self.exits, t) - 1
            if k < 0 or k >= len(ref) - 1:
                raise ValueError(f"time {t!r} lies outside the sampled interval")
            rate = REF_SECONDS * 2.0 / (ref[k] + ref[k + 1])
            out.append(at_exit[k] + (min(t, self.entries[k + 1]) - self.exits[k]) * rate)
        return out

    def segments(self) -> list[float]:
        """Reference seconds from each mark to the next."""
        times = self.reference_times(self.stamps)
        return [b - a for a, b in zip(times, times[1:])]
