"""Host speed, sampled through a run, to put times on a reference scale.

A shared CPU can swing in speed by up to 2x, in spells from under a
second to minutes (as measured on a 2-core VM), so two sets of raw
wall times taken an hour apart disagree by more than any useful bound.
An untimed reference kernel -- fixed Python and small-array numpy
work, the mix the program itself runs -- is timed in short slices
between the program's operations.  A time measured in ``[start, end]``
is then reported at the reference speed: multiplied by
``REFERENCE_SECONDS`` over the median slice time around that interval.
The kernel is the benchmark's own code, so a change to the program
moves a scaled time by the same factor as the raw one.
"""

from __future__ import annotations

import bisect
import time
from typing import List

import numpy as np

from arith import percentile

#: One slice of the reference kernel on the reference host, in seconds
#: (about the median on a 2-core CPython 3.11 VM); scaled times are the
#: times that host would have seen.
REFERENCE_SECONDS = 6.0e-4
#: Slices whose middle lies this far before ``start`` or after ``end``
#: still describe the interval.
WINDOW_SECONDS = 0.1
#: Fewest slices behind one scale factor; the nearest ones are taken
#: when the window holds fewer.
MIN_SLICES = 3

_KEYS = np.arange(64, dtype=np.uint64)
_PROBES = _KEYS[::-1].copy()


def kernel() -> int:
    """One slice of reference work."""
    counts = {}
    total = 0
    for i in range(2000):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    for _ in range(70):
        total += int(np.searchsorted(_KEYS, _PROBES)[3])
    return total


class HostSpeed:
    """Reference-kernel slices timed through a run, in time order."""

    def __init__(self) -> None:
        self.middle: List[float] = []
        self.seconds: List[float] = []

    def sample(self, slices: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(slices):
            start = clock()
            kernel()
            end = clock()
            self.middle.append((start + end) / 2)
            self.seconds.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``."""
        lo = bisect.bisect_left(self.middle, start - WINDOW_SECONDS)
        hi = bisect.bisect_right(self.middle, end + WINDOW_SECONDS)
        if hi - lo < MIN_SLICES:
            if len(self.middle) < MIN_SLICES:
                raise ValueError("too few reference slices to scale a time")
            while hi - lo < MIN_SLICES:
                before = start - self.middle[lo - 1] if lo > 0 else None
                after = self.middle[hi] - end if hi < len(self.middle) else None
                if after is None or (before is not None and before <= after):
                    lo -= 1
                else:
                    hi += 1
        return REFERENCE_SECONDS / percentile(self.seconds[lo:hi], 50)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) * self.factor(start, end)


class ReferenceClock:
    """Reference seconds since ``start``, advanced at the speed the
    latest slices of ``speed`` measured.  An open-loop schedule on this
    clock offers the same share of the host however fast it runs, so
    queueing -- which grows faster than linearly as a host slows --
    does not take the place of the program's own latency."""

    def __init__(self, speed: HostSpeed, start: float) -> None:
        self.speed = speed
        self.host = start
        self.reference = 0.0
        self._rate()

    def _rate(self) -> None:
        recent = self.speed.seconds[-MIN_SLICES:]
        self.rate = REFERENCE_SECONDS / percentile(recent, 50)

    def now(self) -> float:
        host = time.perf_counter()
        self.reference += (host - self.host) * self.rate
        self.host = host
        return self.reference

    def sample(self) -> None:
        """Run one slice, then go on at the speed it measured."""
        self.now()
        self.speed.sample()
        self.now()
        self._rate()

    def host_time(self, reference: float) -> float:
        """The host clock reading at which this clock read (or will read)
        ``reference``, at the current rate."""
        return self.host + (reference - self.reference) / self.rate
