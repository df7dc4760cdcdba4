"""Machine-speed probe for rescaling the benchmark's times.

A shared 2-vCPU host runs the same code up to 1.8x faster or slower from one
stretch of seconds to the next, with neighbours' load.  So every op's wall and
CPU time is rescaled by REF_S over the mean duration of a fixed calibration
slice sampled across the op: a few slices just before and just after it and,
one on a SIGALRM every PERIOD_S while it runs.  Slice time spent inside an op is taken out of the op's times.  The
rescaled times keep their ratios between commits; raw ones are recorded too.
Every op runs at --jobs 1: while a process pool held both CPUs a slice would
measure the op's own load, not the machine's speed.

Of the loops tried (interpreter arithmetic, big-integer AND, modular powers,
random list reads, dict inserts), big-integer AND plus modular powers was among
the pairs that tracked the drift of the sieve, census and witness workloads
best, and it has less jitter of its own than the dict inserts.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PERIOD_S = 0.1
BRACKET = 4  # slices before and after each op
# _slice() takes about this long on a 2.1 GHz Xeon vCPU at a typical load
REF_S = 0.002

_BITS = [(1 << 2000) - 1 - 7919 * i for i in range(64)]


def _slice() -> float:
    t0 = time.perf_counter()
    s = 0
    for y in _BITS[:40]:
        for x in _BITS:
            s += (x & y).bit_count()
    for i in range(1_500):
        triple = [i, i + 1, i + 2]
        s += pow(triple[0] + 3, 100, 1_000_003) + len(triple)
    return time.perf_counter() - t0


class Probe:
    def __init__(self):
        self.inside: list[float] = []  # slice durations during the current op

    def bracket(self) -> list[float]:
        return [_slice() for _ in range(BRACKET)]

    def _on_alarm(self, signum, frame) -> None:
        self.inside.append(_slice())

    @contextlib.contextmanager
    def during(self):
        """Sample while the body runs; self.inside holds the samples after."""
        self.inside = []
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def scale(samples: list[float]) -> float:
    """Factor that rescales a time measured during these samples to REF_S speed."""
    return REF_S / statistics.mean(samples)
