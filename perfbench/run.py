"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload l3_edge --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
gives the per-layer metrics from a separate traced run.  Human-readable
lines go to stderr; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when the run completed and its outputs were correct.

Every timed leg runs in one process and one thread.  The traced run
afterwards repeats its traced leg in a fresh interpreter (one child
process, waited for) to check that its counts repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from arith import percentile, supported_percentile  # noqa: E402


def set_up(workload, speed, times: List[float], updates: List[float]):
    """Set up ``workload.setups`` times, appending each set-up's
    seconds and in-situ load seconds, on the reference scale of
    ``speed``; returns the last environment."""
    from speed import MIN_SLICES

    env = None
    for _ in range(workload.setups):
        env = None
        gc.collect()
        speed.sample(MIN_SLICES)
        start = time.perf_counter()
        env, update_seconds = workload.build()
        end = time.perf_counter()
        speed.sample(MIN_SLICES)
        factor = speed.factor(start, end)
        times.append((end - start) * factor)
        if update_seconds is not None:
            updates.append(update_seconds * factor)
    gc.collect()
    return env


#: The end-to-end metrics of an untraced run, with their units.
E2E_UNITS = {
    "pps": "pkt/s",
    "burst_ms_p50": "ms",
    "burst_ms_tail": "ms",
    "update_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(workload, seed: int, seconds: float) -> Tuple[dict, int, int, bool]:
    """Untraced run of the workload class ``workload``: ``repeats``
    repetitions of the timed region, repetition ``r`` on the inputs of
    seed ``seed * repeats + r`` so that a run covers several op
    streams, not one; every metric pools them.  Times are on the
    reference scale of :mod:`speed`; ``peak_rss_mb`` includes the
    oracle's twins."""
    from legs import oracle, run_leg
    from loads import INSTALL_KINDS
    from speed import HostSpeed

    speed = HostSpeed()
    setup_times: List[float] = []
    installs: List[float] = []
    logs = []
    checked = failed = 0
    for r in range(workload.repeats):
        part = workload(seed * workload.repeats + r)
        env = set_up(part, speed, setup_times, installs)
        gc.freeze()
        log = run_leg(part, env, seconds=seconds / workload.repeats,
                      speed=speed)
        gc.unfreeze()
        del env
        # Checked now, so that no repetition's inputs outlive it.
        part_checked, bad = oracle(part, log)
        checked += part_checked
        failed += len(log.failed) + len(bad)
        log.drop_inputs()
        del part
        logs.append(log)
        installs.extend(log.seconds_of(INSTALL_KINDS))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(len(log.ops) for log in logs)

    latencies = [lat for log in logs for lat in log.data_latencies()]
    # The tail of each repetition, then their median: one repetition
    # caught in a slow spell of the host does not set the run's tail.
    tails = [
        percentile(log.data_latencies(), workload.tail_q) for log in logs
    ]
    fewest = min(len(log.data_latencies()) for log in logs)
    packets = sum(log.packets() for log in logs)
    values = {
        # Open loop: the rate served on the schedule's reference clock;
        # closed loop: packets per reference second busy.
        "pps": packets / sum(
            log.reference_wall if workload.open_loop else log.busy()
            for log in logs
        ),
        "burst_ms_p50": percentile(latencies, 50) * 1e3,
        "burst_ms_tail": percentile(tails, 50) * 1e3,
        "update_ms_p50": percentile(installs, 50) * 1e3,
        "setup_s": percentile(setup_times, 50),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in E2E_UNITS.items()
    }
    if supported_percentile(fewest) < workload.tail_q:
        print(f"perfbench: {fewest} data-plane calls in a repetition do not "
              f"support p{workload.tail_q:g} (10 calls beyond it)",
              file=sys.stderr)
    print(
        f"perfbench: {workload.name}: {attempted} ops in {workload.repeats} "
        f"repetitions, {len(latencies)} data-plane calls "
        f"(tail = p{workload.tail_q:g}), {len(installs)} installs, "
        f"{checked} packets checked, error_frac {failed / max(1, attempted):.4g}",
        file=sys.stderr,
    )
    return metrics, attempted, failed, failed == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        from loads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(expected one of {', '.join(WORKLOADS)})"
        )
    cls = WORKLOADS[args.workload]
    if args.trace:
        from layers import per_layer

        spans_out = os.path.join(
            ROOT, ".perfbench", f"spans-{args.workload}-s{args.seed}.tsv"
        )
        metrics, attempted, failed, correct = per_layer(
            cls(args.seed), args.seconds, spans_out
        )
    else:
        metrics, attempted, failed, correct = end_to_end(
            cls, args.seed, args.seconds
        )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
