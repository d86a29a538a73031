"""How fast the host is while a command runs, timed on a fixed reference kernel.

The host is shared: the same pure-Python work takes up to twice as long from
one second to the next, and its average speed drifts by tens of percent over
minutes.  Raw times of the same code therefore spread between runs by about
as much as any bound a regression check could use.  ``HostSampler`` times a
short fixed kernel right before a command, every ``INTERVAL_S`` while it runs
(from a SIGALRM handler in the main thread, so the command's own code is
untouched) and right after it.  A command's cost in kernel runs is its own
time, handler time taken out, divided by the mean kernel time of those
samples; both sides slow down together, so the quotient cancels most of the
host's drift.

Nothing here imports the package, so a change to the package cannot move
its own yardstick.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02

_PREC = 256
_ONE = 1 << _PREC


def kernel() -> int:
    """Fixed-point exp series on 256-bit integers: the kind of work mpmath's
    pure-Python backend does for the package."""
    total = 0
    for k in range(1, 41):
        x = (k * _ONE) // 97
        s = term = _ONE
        n = 1
        while term:
            term = (term * x >> _PREC) // n
            s += term
            n += 1
        total ^= s
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSampler:
    """Kernel timings around and during one command at a time."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list = []
        self.inside_s = 0.0      # kernel time spent within the command

    def _on_alarm(self, signum, frame):
        t = time_kernel()
        self.samples.append(t)
        self.inside_s += t

    def __enter__(self):
        self.samples = [time_kernel()]
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_kernel())
        return False

    def cost(self, elapsed_s: float) -> tuple:
        """(own seconds, cost in kernel runs) of a command that took
        ``elapsed_s`` with this sampler around it."""
        own = elapsed_s - self.inside_s
        return own, own / statistics.fmean(self.samples)
