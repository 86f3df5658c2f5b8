"""Reference work that tracks the machine's momentary speed, sampled during
the ops themselves.

On the shared 2-CPU machines this benchmark was built on, the same work runs
about 1.6 times slower in some spells than in others, and the machine flips
between the two every quarter second to every few seconds (other tenants'
load on the host). A 2 s op spans several flips, so slices of reference work
taken only between ops say little about the speed an op ran at. Instead an
interval timer (SIGALRM every SLICE_INTERVAL_S) runs a fixed slice of
reference work wherever the run is, inside the op calls too: interpreter
work (JSON and float formatting, as in the program's reports), small-array
work (thirty 3 x 3 eigh, as in the grid scans) and LAPACK work (two 48 x 48
complex eigh, as in the decompositions). The slice runs twice and only the
second pass is timed, so that the program's own memory footprint does not
change it.

An op's own time is its wall time minus the time the slices took inside it.
It is reported at the reference speed: own time times (REFERENCE_SLICE_S
over the mean of the slices taken during the op and within WINDOW_S of
either end) to the power PACE_EXPONENT. The mean, because slices come at
even intervals, so their mean is the op's time-weighted speed. An op too
short to hold MIN_SLICES slices uses the NEAREST slices around its midpoint
instead.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

#: Time of one slice on the machine the figures in README.md were measured
#: on, in its faster spells (1.5-1.7 ms there, 2.5-2.8 ms in the slower
#: ones); timings are reported as if the machine ran at this pace.
REFERENCE_SLICE_S = 1.5e-3

#: Interval of the slice timer; a slice costs 2 x 1.5-2.8 ms, so about 5 %
#: of the run goes to slices, none of it counted in the ops.
SLICE_INTERVAL_S = 0.1

#: The program's ops slow down less than the slice in the slow spells: over
#: 150 s of repeated 2-s scans, decompose --json at n = 256 and 120-ms
#: scans, taken where the slices were 1.6 times slower, the slices' full
#: ratio left those ops 4-16 % faster than where the slices were fast. With
#: the ratio to this power the repeat-to-repeat variation of the large ops
#: was lowest (0.8-0.9 fit all), so a run's mix of spells moves its
#: figures least.
PACE_EXPONENT = 0.85

#: Slices within this long of an op's ends count towards its pace.
WINDOW_S = 0.15

#: Fewest slices that set one op's pace, and how many nearest slices are
#: used when the window holds fewer.
MIN_SLICES = 3
NEAREST = 6


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._pairs = rng.standard_normal((300, 2)).tolist()
        m = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._matrix = m + m.conj().T
        self._small = self._matrix[:3, :3].copy()
        self._when = []
        self._seconds = []
        #: Total wall time spent in slices; an interval's own time is its
        #: wall time minus the growth of this.
        self.spent = 0.0
        self._busy = False
        self._running = False
        self._previous = None

    def _work(self):
        json.dumps(self._pairs)
        ", ".join(f"{x:.17g}" for x, _ in self._pairs)
        for _ in range(30):
            np.linalg.eigh(self._small)
        for _ in range(2):
            np.linalg.eigh(self._matrix)

    def slice(self, *_):
        if self._busy:  # a tick that arrives while a slice runs is dropped
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            self._work()
            mid = time.perf_counter()
            self._work()
            end = time.perf_counter()
            self._when.append(mid)
            self._seconds.append(end - mid)
            self.spent += end - begin
        finally:
            self._busy = False

    def start(self):
        """Take a slice now and then every SLICE_INTERVAL_S until stop()."""
        self._previous = signal.signal(signal.SIGALRM, self.slice)
        self._running = True
        self.slice()
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S,
                         SLICE_INTERVAL_S)

    def stop(self):
        """Stop the timer after one last slice, so that the last op has
        slices after it. factor() is meant for after this."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self.slice()

    def factor(self, begin, end):
        """(REFERENCE_SLICE_S over the mean slice of the interval
        [begin, end]) ** PACE_EXPONENT; multiply the interval's own time by
        it."""
        when = np.asarray(self._when)
        seconds = np.asarray(self._seconds)
        inside = (when >= begin - WINDOW_S) & (when <= end + WINDOW_S)
        if inside.sum() >= MIN_SLICES:
            chosen = seconds[inside]
        else:
            chosen = seconds[np.argsort(np.abs(when - (begin + end) / 2))
                             [:NEAREST]]
        return (REFERENCE_SLICE_S
                / statistics.fmean(chosen.tolist())) ** PACE_EXPONENT


class Interval:
    """One timed call: opened before it, closed after it. `own` is its wall
    time minus the slices taken inside it; `paced()` scales that to the
    reference speed, once the slices after the call are in."""

    def __init__(self, pace=None):
        self.pace = pace
        self._spent = pace.spent if pace is not None else 0.0
        self.begin = time.perf_counter()
        self.end = self.own = None

    def close(self):
        self.end = time.perf_counter()
        spent = self.pace.spent if self.pace is not None else 0.0
        self.own = self.end - self.begin - (spent - self._spent)
        return self

    def paced(self):
        return self.own * self.pace.factor(self.begin, self.end)
