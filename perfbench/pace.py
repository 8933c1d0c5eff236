"""Host pace: how fast this machine runs a fixed reference computation
while the benchmark's work runs, so that work time can be given relative
to it.

On a shared host one core's speed swings by up to 1.8x, in spells that
last from a fraction of a second to minutes, with no stolen time to show
for it: CPU time swings with wall time.  A median taken inside one run
cannot remove a spell that covers the run.  So while the work runs, a
``Pacer`` interrupts it every ``PERIOD`` seconds with ``SIGALRM`` and
times one burst of ``reference()``, a fixed mix of scalar float
arithmetic in Python and 3x3 numpy products, the kind of work jetlag's
compiled fields and tensor code do.  The bursts sample the host's speed
evenly over the same interval as the work, so

    work_s = wall time of the work less the time spent in bursts
    ratio  = work_s / mean burst time

is the work's cost in reference bursts, which a slow spell moves far
less than it moves ``work_s``.  The bursts cost about 1% of the work
time.  Only the main thread receives the signal; the handler touches no
jetlag state.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.1        # seconds between bursts

_A = np.arange(9.0).reshape(3, 3) / 10


def reference() -> float:
    """About 1 ms of work on an idle core of an x86-64 server."""
    s = 0.0
    for i in range(1200):
        s += math.sin(i * 0.01) * (i + 0.5) / (1.0 + i * i)
    x = _A
    for _ in range(160):
        x = np.tanh(x @ _A)
    return s + float(x[0, 0])


class Pacer:
    """Context manager timing the work inside it, with bursts of
    ``reference()`` every ``PERIOD`` seconds and one on each side of it,
    outside the timed interval, so a short piece of work still has a
    pace.  After the block: ``work_s`` and ``ratio``."""

    def __init__(self):
        self.bursts: list = []
        self.spent = 0.0
        self.work_s = math.nan
        self._busy = False

    def _burst(self) -> None:
        t0 = perf_counter()
        reference()
        self.bursts.append(perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        if self._busy:      # a burst slower than PERIOD: do not nest
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self._burst()
        finally:
            self.spent += perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "Pacer":
        self.bursts, self.spent = [], 0.0
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        wall = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.work_s = wall - self.spent
        self._burst()
        return False

    @property
    def ratio(self) -> float:
        return self.work_s / (sum(self.bursts) / len(self.bursts))
