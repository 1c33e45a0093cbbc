"""The machine's speed, sampled with a fixed loop between timed items.

The benchmark runs on shared hosts whose speed swings by up to 2x in
phases of seconds to minutes, so two runs of the same code can disagree by
more than any useful bound.  A ``SpeedMeter`` runs ``reference`` -- a
fixed stdlib-only loop of the kinds of work cubic2ec does (Fraction sums
in a dict keyed by tuples, breadth-first search over sets) -- between the
items a run times, for a fixed share of the run's time.  A time measured
over ``[start, end]`` is scaled by ``NOMINAL_S / mean reference time``
over the samples taken within ``WINDOW_S`` of that interval: it becomes
the time the item would have taken on a machine where ``reference`` takes
``NOMINAL_S``.  The loop uses no cubic2ec code, so a change to the program
cannot move it, and it runs with the cyclic garbage collector off, so the
size of the program's heap does not move it either.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# reference() takes about this long on a 2-core Intel Xeon VM in a quiet
# phase; the value only fixes the scale of the reported times
NOMINAL_S = 0.010
# how far from a timed interval the samples that scale it may lie
WINDOW_S = 2.0
# share of a run's time spent sampling, and samples taken before any other
SHARE = 0.1
MIN_SAMPLES = 5

_N = 1500
_ADJ = tuple(
    tuple(sorted({(v * 7 + 1) % _N, (v * 13 + 5) % _N, (v + 1) % _N})) for v in range(_N)
)


def reference():
    """A fixed amount of work; returns a checksum of it."""
    acc: dict = {}
    for i in range(1, 200):
        w = Fraction(i, 7 * i + 3)
        for j in range(12):
            key = (j, (i * j) % 17)
            acc[key] = acc.get(key, 0) + w
    heavy = frozenset(k for k, v in sorted(acc.items()) if v > 1)
    sizes = []
    for s in range(0, _N, 150):
        seen = {s}
        frontier = [s]
        order = []
        while frontier:
            nxt = []
            for u in frontier:
                for w in _ADJ[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                        order.append((u, w))
            frontier = nxt
        sizes.append(len(frozenset(order)))
    return len(heavy), tuple(sorted(sizes))


class SpeedMeter:
    """Reference samples interleaved with the work of one run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self.t0 = perf_counter()

    def pace(self):
        """Sample until the samples take ``SHARE`` of the time since start."""
        busy = perf_counter() - self.t0 - self.spent
        enabled = gc.isenabled()
        gc.disable()
        try:
            while len(self.durations) < MIN_SAMPLES or self.spent < SHARE * busy:
                t = perf_counter()
                reference()
                d = perf_counter() - t
                self.starts.append(t)
                self.durations.append(d)
                self.spent += d
        finally:
            if enabled:
                gc.enable()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into nominal seconds."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        return NOMINAL_S / statistics.fmean(self.durations[lo:hi] or self.durations)
