"""Host-speed reference: a fixed pure-Python loop timed all through every measurement.

On a small shared host the speed of one core drifts by a quarter or more
over seconds to minutes, and the cores drift independently of each other,
so the same pass can take 0.7 s or 1.3 s depending on when it runs.  The
benchmark pins its processes to one core and times this loop, which never
touches the library, on that core all through each timed section: before
it, every ``SAMPLE_EVERY_S`` seconds from an interval-timer signal while it
runs, and after it.  The time spent in the loop is left out of the
section's time.  A section that took ``t`` seconds, sampled by loops that
took ``r_0 .. r_k``, is reported as

    t * REF_NOMINAL_S / mean(r_0 .. r_k)

that is, in seconds on a core that runs the loop in ``REF_NOMINAL_S``.  A
change to the library moves the scaled time exactly as it moves the raw
time; only the drift of the core's speed is divided out.  Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

# About the loop's median time on the 2.1 GHz Xeon vCPUs the benchmark was
# written on; it only sets the scale of the reported seconds.
REF_NOMINAL_S = 0.06
# Time between loop samples while a section runs in this process.
SAMPLE_EVERY_S = 0.25
_MASK = (1 << 127) - 1


def _step(x: float, y: float) -> float:
    return x * 0.5 + y


def reference_loop() -> float:
    """Run the fixed loop; returns its wall time in seconds.

    It mixes what the library's pure-Python layers do: dict lookups and
    stores on tuple keys, small function calls, float and big-integer
    arithmetic (as in mpmath), string and short-list allocation.
    """
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    big = 1
    for i in range(50_000):
        key = (i % 977, i % 13)
        table[key] = table.get(key, 0.0) + _step(i * 1e-3, acc)
        acc = acc * 0.999 + len(str(i))
        big = ((big * 1_000_003 + i) & _MASK) >> 1 | 1 << 120
        if i % 64 == 0:
            acc += sum([j * 1.5 for j in range(16)])
    return time.perf_counter() - t0


def scale(seconds: float, refs: list[float]) -> float:
    """``seconds`` at the nominal speed, given the loop times sampled over them."""
    return seconds * REF_NOMINAL_S * len(refs) / sum(refs)


class SpeedClock:
    """Times one section while a SIGALRM timer samples the loop.

    Creating the clock runs the loop and starts the section; the loop then
    runs every ``SAMPLE_EVERY_S`` seconds until ``stop()``, which runs it
    once more.  ``seconds`` is the section's time without the loops.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.seconds = 0.0
        self._in_loops = 0.0
        self._loop()
        self._in_loops = 0.0  # the section starts after the first loop
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()

    def _loop(self) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_loop())
        self._in_loops += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._loop()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self) -> "SpeedClock":
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = time.perf_counter() - self._t0 - self._in_loops
        self._loop()
        return self

    @property
    def scaled(self) -> float:
        return scale(self.seconds, self.refs)
