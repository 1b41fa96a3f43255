"""Timed legs over a workload's op stream, and the output oracle."""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Dict, List, Optional, Tuple

from arith import due_latency
from loads import DATA_KINDS
from speed import MIN_SLICES, ReferenceClock


def digest(workload, raw) -> Tuple[int, bytes]:
    """``(packets, hash)`` of one data op's outputs: a log keeps these
    instead of the outputs, so its memory does not grow with the run."""
    outputs = workload.outputs(raw)
    return len(outputs), hashlib.blake2b(
        repr(outputs).encode(), digest_size=16
    ).digest()


class Log:
    """What one timed leg did, op by op."""

    def __init__(self) -> None:
        self.ops: List = []
        self.start: List[float] = []  # clock reading at each op's start
        self.seconds: List[float] = []  # duration of each op
        self.latency: List[float] = []  # from due time (open loop) or start
        self.factor: List[float] = []  # reference seconds per host second
        self.late: List[float] = []  # open loop: start after due
        self.out: Dict[int, Tuple[int, bytes]] = {}  # op index -> digest
        self.failed: List[int] = []
        self.wall = 0.0
        self.reference_wall = 0.0  # wall time on the open-loop schedule's clock

    def busy(self) -> float:
        return sum(s * f for s, f in zip(self.seconds, self.factor))

    def packets(self) -> int:
        return sum(op.pkts for op in self.ops)

    def data_latencies(self) -> List[float]:
        return [
            lat * f for op, lat, f in zip(self.ops, self.latency, self.factor)
            if op.kind in DATA_KINDS
        ]

    def seconds_of(self, kinds) -> List[float]:
        return [
            s * f for op, s, f in zip(self.ops, self.seconds, self.factor)
            if op.kind in kinds
        ]

    def drop_inputs(self) -> None:
        """Forget each op's argument (its packets), once checked."""
        self.ops = [op._replace(arg=None) for op in self.ops]

    def rescale(self, speed) -> None:
        """Put every op's times on the reference scale of ``speed``."""
        self.factor = [
            speed.factor(start, start + seconds)
            for start, seconds in zip(self.start, self.seconds)
        ]


#: Host seconds between two reference slices in a closed loop.
SLICE_EVERY = 0.02


def run_leg(workload, env, *, seconds: Optional[float] = None,
            max_ops: Optional[int] = None, keep_all: bool = False,
            spans=None, speed=None) -> Log:
    """Execute the workload's op stream on ``env`` until ``seconds`` of
    wall time have passed or ``max_ops`` ops ran; open-loop ops wait
    for their due time.

    With ``speed`` (a :class:`speed.HostSpeed`), reference slices run
    between ops -- every ``SLICE_EVERY`` in a closed loop, and in place
    of idling while an open-loop op is not yet due -- open-loop due
    times are on a :class:`speed.ReferenceClock`, and the log's times
    are put on the reference scale at the end."""
    log = Log()
    ops = workload.ops()
    clock = time.perf_counter
    if speed is not None:
        speed.sample(MIN_SLICES)
    t0 = clock()
    next_slice = t0 + SLICE_EVERY
    schedule = ReferenceClock(speed, t0) if speed is not None else None
    for index, op in enumerate(ops):
        if max_ops is not None and index >= max_ops:
            break
        if seconds is not None and clock() - t0 >= seconds:
            break
        due = None
        if op.due is not None and schedule is not None:
            while schedule.now() < op.due:
                left = (op.due - schedule.reference) / schedule.rate
                if left > 2 * speed.seconds[-1]:
                    schedule.sample()
            due = schedule.host_time(op.due)
        elif op.due is not None:
            due = t0 + op.due
            wait = due - clock()
            if wait > 0.002:
                time.sleep(wait - 0.001)
            while clock() < due:
                pass
        elif speed is not None and clock() >= next_slice:
            speed.sample()
            next_slice = clock() + SLICE_EVERY
        span = spans.open("bench." + op.kind, op.pkts) if spans is not None else -1
        start = clock()
        try:
            raw = workload.apply(env, op)
        except Exception as exc:  # a failed op is counted, the run goes on
            raw = None
            log.failed.append(index)
            print(f"perfbench: op {index} ({op.kind}) failed: {exc!r}",
                  file=sys.stderr)
        end = clock()
        if spans is not None:
            spans.close(span)
        log.ops.append(op)
        log.start.append(start)
        log.seconds.append(end - start)
        if due is not None:
            latency, late = due_latency(due, start, end)
            log.latency.append(latency)
            log.late.append(late)
        else:
            log.latency.append(end - start)
        if op.kind in DATA_KINDS and (keep_all or op.check) and raw is not None:
            log.out[index] = digest(workload, raw)
    log.wall = clock() - t0
    if schedule is not None:
        log.reference_wall = schedule.now()
    if speed is not None:
        speed.sample(MIN_SLICES)
        log.rescale(speed)
    else:
        log.factor = [1.0] * len(log.ops)
    return log


def oracle(workload, log: Log) -> Tuple[int, List[int]]:
    """Replay the log's op stream on a twin built the same way with the
    columnar path off, and compare every checked op.  Returns
    ``(packets checked, indices of mismatching ops)``."""
    twin, _ = workload.build(columnar=False)
    reference: Dict[int, Tuple] = {}
    for index, op in workload.oracle_plan(log.ops):
        try:
            raw = workload.apply(twin, op)
        except Exception as exc:
            print(f"perfbench: twin op {index} ({op.kind}) failed: {exc!r}",
                  file=sys.stderr)
            raw = None
        if raw is not None:
            reference[index] = digest(workload, raw)
    checked = 0
    bad: List[int] = []
    for index, got in log.out.items():
        op = log.ops[index]
        if not op.check:
            continue
        checked += got[0]
        if got != reference.get(workload.oracle_key(index, op)):
            bad.append(index)
    return checked, bad
