"""Host-speed reference for the benchmark's timings.

The machine this benchmark was tuned on is a 2-vCPU VM whose vCPUs share a
host core with other tenants.  The same code runs up to half again slower or
a third faster for stretches of seconds to minutes, so raw times of one
30-second run differ from those of the next by 20-40% (Python 3.11.7).

The benchmark therefore runs a fixed reference kernel, pure-Python Fraction,
big-int, dict and list work like the program's, before every timed item, at
both ends of every pass and, in untraced passes, every INTERVAL_S from a
SIGALRM handler, so that long items are sampled inside too.  Kernel runs are
cut out of every timed interval, and each stretch between two kernel runs is
scaled by the kernel's speed on both sides of it:

    normalised = raw * REF_S / mean(kernel time before, kernel time after)

Over a four-minute run on this machine, the median of items normalised by
the kernel runs on their two sides moved 3-8% between 30-second windows,
their raw median 26-37%.  Over five seeds, the spread of the median pass
time of 30-second runs fell from 8-17% raw to 1-6% normalised.  The
normalised figures read as seconds on a host where the kernel takes REF_S.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: The kernel's time on the quiet host: its p10 over 6000 runs in a row on
#: the 2-vCPU VM above.  It only scales the figures.
REF_S = 0.00156
#: Seconds between kernel runs inside long items; the kernel's 1.6-2.7 ms
#: every 50 ms cost about 4% of a pass, outside the timed intervals.
INTERVAL_S = 0.05


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    x = Fraction(1, 3)
    total = 0
    for i in range(1, 100):
        x = (x * x + Fraction(i, 7)) / (x + 1)
        x = Fraction(x.numerator % 10 ** 40 + 1, x.denominator % 10 ** 40 + 1)
        total += len(str(i * 12345678901234567 ** 3))
    counts: dict[int, int] = {}
    for i in range(1300):
        counts[i % 97] = counts.get(i % 97, 0) + i
    total += sum(sorted(counts.values(), reverse=True)[:5])
    return total


class Clock:
    """Kernel runs of one pass, and raw and scaled time between them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.marks: list[tuple[float, float]] = []   # (start, end) per run
        self._busy = False

    def start(self, timer: bool) -> None:
        """Begin a pass with a kernel run; with `timer`, run one every
        INTERVAL_S until `stop`."""
        self.marks = []
        self.sample()
        if timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> int:
        """Run the kernel; return the index of the gap that follows it."""
        self._busy = True
        span = self.tracer.open("bench.reference")
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.tracer.close(span)
        self.marks.append((t0, t1))
        self._busy = False
        return len(self.marks) - 1

    def gaps(self) -> list[tuple[float, float, float]]:
        """(start, end, scale) of each gap between consecutive kernel runs."""
        return [(e0, s1, REF_S / (((e0 - s0) + (e1 - s1)) / 2))
                for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:])]


def measure(gaps, first: int, start: float, end: float) -> tuple[float, float]:
    """Raw and scaled seconds of [start, end] outside kernel runs; the
    interval begins in gap `first`."""
    raw = norm = 0.0
    for g0, g1, scale in gaps[first:]:
        if g0 >= end:
            break
        overlap = min(g1, end) - max(g0, start)
        raw += overlap
        norm += overlap * scale
    return raw, norm
