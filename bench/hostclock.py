"""Timing that discounts the host's changing speed.

On a shared host the same Python work runs up to twice as slow when
neighbours are busy, and the speed changes many times a second, so raw
wall-clock times of one run differ from those of the next by 20-40%.
``HostClock`` samples the speed while the workload runs: every
``INTERVAL_S`` seconds a timer signal runs a fixed probe (interpreter
arithmetic, dict stores and small allocations, like the library's own
work) and records how long it took.  ``elapsed(a, b)`` then converts a
raw interval between two ``perf_counter()`` readings into seconds at
the reference speed, at which the probe takes ``REFERENCE_PROBE_S``:
each stretch between two probes is divided by how much slower than
that the probe ran just before it, and the probes' own time is left
out.  The probe is the benchmark's code, identical on every commit, so
a change to the library moves the normalised times as it moves the raw
ones.

Call ``start()`` before timing and ``stop()`` afterwards; ``stop`` also
restores the previous signal handler.  Only the main thread can do this.
``elapsed`` may be called at any time; an interval that ends after the
latest probe is scaled by that probe's speed.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

# The probe's duration on an idle host of the kind the seed numbers come
# from (2-CPU x86-64 container, Python 3.11), so that normalised times
# read about like raw times on that host when it is quiet.
REFERENCE_PROBE_S = 0.0004
INTERVAL_S = 0.01

_store: dict[int, tuple[int, int]] = {}


def probe() -> int:
    """A fixed piece of interpreter work of about 0.4 ms."""
    s = 0
    for i in range(1000):
        s = (s * 31 + i) & 0xFFFF
    for i in range(400):
        s += i * i % 7
        _store[(i * 7919) & 4095] = (s, i)
    seen, rows = set(), []
    for i in range(150):
        t = tuple(range(i % 5, i % 5 + 3))
        seen.add(t)
        rows.append([i, t])
    return s + len(rows) + len(seen)


class HostClock:
    """Samples the host's speed with a timer signal; converts raw
    intervals into seconds at the reference speed."""

    def __init__(self):
        self.starts: list[float] = []  # raw start of each probe
        self.ends: list[float] = []  # raw end of each probe
        self._slow: list[float] = []
        self._at: list[float] = []
        self._previous = None
        self._running = False
        self._in_probe = False

    def _tick(self, signum, frame) -> None:
        if self._in_probe:  # a signal that lands during a slow probe
            return
        self._in_probe = True
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._in_probe = False

    def start(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._tick(None, None)  # a first sample before anything is timed
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stops sampling; a second call does nothing."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick(None, None)  # a last sample after everything timed

    def _extend(self) -> None:
        """Brings ``_slow`` (each probe's duration over the reference) and
        ``_at`` (normalised time from the first probe's start to each
        probe's start) up to the latest probe.  The gap after probe i runs
        at the speed probe i measured."""
        for i in range(len(self._slow), len(self.ends)):
            self._slow.append((self.ends[i] - self.starts[i]) / REFERENCE_PROBE_S)
            if i == 0:
                self._at.append(0.0)
            else:
                gap = max(self.starts[i] - self.ends[i - 1], 0.0)
                self._at.append(self._at[-1] + gap / self._slow[i - 1])

    def reference_time(self, t: float) -> float:
        """Normalised time from the first probe's start to the raw
        ``perf_counter()`` reading ``t``; past the latest probe, at that
        probe's speed."""
        self._extend()
        n = len(self._slow)
        i = bisect.bisect_right(self.starts, t, 0, n) - 1
        if i < 0:
            return (t - self.starts[0]) / self._slow[0]
        return self._at[i] + max(t - self.ends[i], 0.0) / self._slow[i]

    def elapsed(self, a: float, b: float) -> float:
        """Seconds at the reference speed between raw readings a <= b."""
        return self.reference_time(b) - self.reference_time(a)

    def slowdowns(self) -> list[float]:
        """Each probe's duration over the reference duration."""
        self._extend()
        return list(self._slow)

    def raw_probe_share(self) -> float:
        """Share of the sampled span spent in probes (their overhead)."""
        span = self.ends[-1] - self.starts[0]
        return sum(e - s for s, e in zip(self.starts, self.ends)) / span if span > 0 else 0.0
