"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from arith import (  # noqa: E402
    burst_sizes,
    due_latency,
    due_offsets,
    linear_fit,
    percentile,
    self_times,
    supported_percentile,
)
from speed import (  # noqa: E402
    REFERENCE_SECONDS,
    WINDOW_SECONDS,
    HostSpeed,
    ReferenceClock,
)


def test_self_time_nested_spans():
    # root [0, 10] > child [2, 6] > grandchild [3, 4]
    spans = [(0.0, 10.0, -1), (2.0, 6.0, 0), (3.0, 4.0, 1)]
    assert self_times(spans) == [6.0, 3.0, 1.0]


def test_self_time_sibling_spans():
    # Two disjoint children and one that overlaps the second.
    spans = [
        (0.0, 10.0, -1),
        (1.0, 3.0, 0),
        (5.0, 8.0, 0),
        (7.0, 9.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 2.0 - 4.0)


def test_self_time_child_clipped_to_parent():
    spans = [(0.0, 4.0, -1), (3.0, 6.0, 0)]
    assert self_times(spans) == [3.0, 3.0]


def test_self_time_separate_roots():
    spans = [(0.0, 2.0, -1), (0.5, 1.0, 0), (2.0, 5.0, -1)]
    assert self_times(spans) == [1.5, 0.5, 3.0]


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 101)


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
     (99, 50.0), (5, 50.0)],
)
def test_supported_percentile_needs_ten_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_due_offsets_follow_offered_rate():
    assert due_offsets([10, 20, 5], rate_pps=10.0) == [0.0, 1.0, 3.0]
    with pytest.raises(ValueError):
        due_offsets([1], 0.0)


def test_due_latency_counts_from_due_time():
    # Issued on time: latency is the service time, not late.
    assert due_latency(due=1.0, start=1.0, end=1.25) == (0.25, 0.0)
    # Issued 0.5 s late behind a stall: the wait counts as latency.
    assert due_latency(due=1.0, start=1.5, end=1.75) == (0.75, 0.5)
    # Issued early (never happens with pacing, but is not negative).
    assert due_latency(due=1.0, start=0.9, end=1.1)[1] == 0.0


def test_burst_sizes_deterministic_per_seed():
    a = burst_sizes(7, 5000)
    assert a == burst_sizes(7, 5000)
    assert a != burst_sizes(8, 5000)
    assert min(a) >= 1 and max(a) <= 256
    assert 25 <= percentile(a, 50) <= 35
    # A longer stream starts with the shorter one.
    assert burst_sizes(7, 100) == a[:100]


def test_linear_fit():
    xs = [1.0, 2.0, 3.0, 4.0]
    intercept, slope = linear_fit(xs, [3.0 + 2.0 * x for x in xs])
    assert intercept == pytest.approx(3.0)
    assert slope == pytest.approx(2.0)
    assert linear_fit([2.0, 2.0], [1.0, 3.0]) == (2.0, 0.0)
    assert linear_fit([], []) == (0.0, 0.0)


def _speed(points):
    speed = HostSpeed()
    for middle, seconds in points:
        speed.middle.append(middle)
        speed.seconds.append(seconds)
    return speed


def test_host_speed_scales_by_the_slices_around_an_interval():
    ref = REFERENCE_SECONDS
    # Slices at half speed around t=1, at full speed around t=10.
    speed = _speed([(0.9, 2 * ref), (1.0, 2 * ref), (1.1, 2 * ref),
                    (10.0, ref), (10.1, ref), (10.2, ref)])
    assert speed.factor(0.95, 1.05) == pytest.approx(0.5)
    assert speed.scaled(10.0, 10.2) == pytest.approx(0.2)
    # A slow outlier slice inside the window moves the median not at all.
    speed = _speed([(0.0, ref), (0.1, ref), (0.2, 9 * ref)])
    assert speed.factor(0.0, 0.2) == pytest.approx(1.0)


def test_host_speed_takes_the_nearest_slices_outside_the_window():
    ref = REFERENCE_SECONDS
    far = 10 * WINDOW_SECONDS
    speed = _speed([(-far, 8 * ref), (0.0, 4 * ref), (far, 2 * ref),
                    (3.5 * far, ref), (4 * far, ref)])
    # One slice lies in the window around ``far``; the two nearest
    # outside it are both earlier ones.
    assert speed.factor(far, far) == pytest.approx(0.25)
    speed = _speed([(0.0, ref)])
    with pytest.raises(ValueError):
        speed.factor(0.0, 1.0)


def test_reference_clock_runs_at_the_latest_slices_speed():
    ref = REFERENCE_SECONDS
    speed = _speed([(0.0, ref), (0.1, 2 * ref), (0.2, 2 * ref),
                    (0.3, 2 * ref)])
    clock = ReferenceClock(speed, 10.0)
    assert clock.rate == pytest.approx(0.5)  # a host at half speed
    clock.reference = 5.0
    # One reference second later is two host seconds later.
    assert clock.host_time(6.0) == pytest.approx(12.0)
    assert clock.host_time(4.0) == pytest.approx(8.0)


def test_benchmark_json_names_the_printed_metrics():
    import json

    import run  # puts the program's src/ on the path

    import layers
    import loads

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(loads.WORKLOADS)
