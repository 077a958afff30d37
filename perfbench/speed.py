"""Time measured against the speed of a shared machine.

The benchmark's machine is a few cores of a shared host, and its speed
moves from one tenth of a second to the next: a fixed pure-Python kernel
takes anywhere from 0.6 to 1.2 times its median time, in stretches of 0.1 s
to several seconds.  Raw timings of the same ops spread by 25% or more
between runs, and by as much inside one run.  The process's CPU time is
no steadier, and on this machine it sometimes advances in 4 ms ticks.

So the benchmark samples the machine's speed while it measures.  A
SpeedMeter runs probe(), a fixed kernel of exact rational arithmetic (the
kind of work superq's scalars do, but stdlib code only, so no change to
superq moves it), every PROBE_EVERY_S of wall time from a SIGALRM handler.
The samples fall inside long ops as well as between ops.  A stretch of
time is then scaled by REF_PROBE_S / (the probe time in that stretch),
averaged as speeds over the samples: the result is the time the same work
takes on a machine on which the probe takes REF_PROBE_S.  The time the
probes themselves take is left out of every measured stretch.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from fractions import Fraction

PROBE_TERMS = 100        # the probe sums 1/k in Fraction for k < PROBE_TERMS
PROBE_EVERY_S = 0.01     # one probe per 10 ms of wall time: about 3% of it
# The reference probe time, fixed once: within the range of the probe's
# time on the machine the benchmark was made on (2 vCPUs of a shared host,
# Python 3.11; 0.2 to 0.45 ms), so that a scaled time reads like a raw one.
REF_PROBE_S = 0.0003

clock = time.perf_counter   # every time in the benchmark is on this clock


def probe():
    """Seconds one fixed kernel of Fraction arithmetic takes right now."""
    t0 = clock()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS):
        total += Fraction(1, k)
    return clock() - t0


def scale_of(samples):
    """REF_PROBE_S times the mean speed (1 / probe time) of the samples."""
    if not samples:
        return 1.0
    return REF_PROBE_S * sum(1.0 / p for p in samples) / len(samples)


class SpeedMeter:
    """Samples the machine's speed every PROBE_EVERY_S while it runs.

    on_probe, if given, is called with the seconds each sample took, from
    inside the signal handler (the tracer uses it to keep probe time out of
    the span that was open)."""

    def __init__(self, on_probe=None):
        self.at = []        # clock() when each sample started
        self.took = []      # the probe's time in each sample
        self.spent = []     # the handler's whole time in each sample
        self.on_probe = on_probe
        self._busy = False
        self._old = None

    def _sample(self, _signum, _frame):
        if self._busy:      # a signal that arrives while a probe runs
            return
        self._busy = True
        t0 = clock()
        took = probe()
        self.at.append(t0)
        self.took.append(took)
        spent = clock() - t0
        self.spent.append(spent)
        if self.on_probe:
            self.on_probe(spent)
        self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def measure(self, start, end):
        """(raw, scaled) seconds of the stretch [start, end] of clock()
        time, both without the probes that ran inside it.  A stretch too
        short to hold a sample is scaled by the samples just before and
        just after it."""
        lo, hi = bisect_left(self.at, start), bisect_left(self.at, end)
        raw = end - start - sum(self.spent[lo:hi])
        samples = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return raw, raw * scale_of(samples)
