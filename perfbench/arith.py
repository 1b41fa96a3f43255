"""The benchmark's own arithmetic: percentiles, span self time, linear
fits, open-loop due times and the seeded burst-size generator.

Everything here is pure (no clock, no global state) so that
``test_arith.py`` can pin it down exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: A percentile is *supported* by a sample when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (NumPy's default ``linear`` method); 0.0 when empty."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def supported_percentile(
    n: int, candidates: Sequence[float] = (99.0, 95.0, 90.0)
) -> float:
    """The highest candidate percentile with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it; the median when no
    candidate qualifies."""
    for q in sorted(candidates, reverse=True):
        # n * (100 - q) / 100 samples lie beyond the q-th percentile.
        if n * (100.0 - q) >= MIN_BEYOND * 100.0:
            return q
    return 50.0


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    ``spans[i]`` is ``(start, end, parent)`` with ``parent`` the index
    of the enclosing span or ``-1``.  Overlapping children are counted
    once (their union), and a child sticking out of its parent counts
    only inside the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(max(0.0, (end - start) - covered))
    return result


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares ``(intercept, slope)`` of ``ys`` against ``xs``;
    ``(mean(ys), 0.0)`` when the xs do not vary."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys differ in length")
    if n == 0:
        return 0.0, 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0.0:
        return mean_y, 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var_x
    return mean_y - slope * mean_x, slope


def due_offsets(sizes: Sequence[int], rate_pps: float) -> List[float]:
    """Open-loop schedule: burst ``i`` is due once the packets of the
    bursts before it have been offered at ``rate_pps``."""
    if rate_pps <= 0:
        raise ValueError("rate_pps must be positive")
    offsets = []
    sent = 0
    for size in sizes:
        offsets.append(sent / rate_pps)
        sent += size
    return offsets


def due_latency(due: float, start: float, end: float) -> Tuple[float, float]:
    """``(latency, late)`` of one open-loop request: latency runs from
    when it was due to when it completed; ``late`` is how long after
    its due time the generator issued it (never negative)."""
    return end - due, max(0.0, start - due)


def burst_sizes(
    seed: int,
    n: int,
    median: float = 30.0,
    sigma: float = 1.0,
    low: int = 1,
    high: int = 256,
) -> List[int]:
    """``n`` seeded log-normal burst sizes in ``[low, high]`` -- what a
    poll-mode RX loop hands the data plane.  Same seed, same sizes."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x6275727374])  # "burst"
    raw = rng.lognormal(mean=math.log(median), sigma=sigma, size=n)
    return [int(v) for v in np.clip(np.rint(raw), low, high)]
