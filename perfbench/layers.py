"""The traced run: per-layer metrics from spans around each layer.

Three legs replay the same seed-determined ops, each on a fresh build:

* **B**, traced -- every per-layer metric comes from its spans;
* **A**, untraced -- the reference for byte-identical outputs and for
  the tracing overhead; the oracle replays it on the twin;
* **C**, traced again in a fresh interpreter -- its deterministic
  counts must equal B's.

The legs are bounded by op count, not time, so the counts repeat
exactly between two runs with the same seed and ``--seconds``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

from arith import linear_fit, percentile
from legs import Log, oracle, run_leg
from loads import INSTALL_KINDS, ROLLBACK_KINDS
from spans import Spans, Tracer

#: Counts that must repeat exactly for the same seed.
DETERMINISTIC = (
    "dp.scalar_share",
    "runtime.fabric.frontdoor_calls_per_pkt",
    "compiler.compile_update.calls",
    "runtime.plan_cache.hits",
    "runtime.channel.bytes_per_update",
    "bench.oracle.pkts_checked",
)

#: Bench op spans after which a device runs a new dataplane epoch.
FLIPS = {"bench." + kind for kind in INSTALL_KINDS + ROLLBACK_KINDS}

UNITS = {
    "dp.columnar.ms": "ms",
    "dp.columnar.calls": "count",
    "dp.columnar.us_per_burst_fixed": "us",
    "dp.columnar.us_per_pkt": "us",
    "dp.scalar.pkts": "count",
    "dp.scalar.ms": "ms",
    "dp.scalar_share": "ratio",
    "dp.plan.compile_shadow.ms": "ms",
    "dp.columnar.first_burst_after_flip_ms": "ms",
    "tables.lookup_batch.ms": "ms",
    "tables.lookup_batch.calls": "count",
    "tables.lookup.ms": "ms",
    "tables.lookup.calls": "count",
    "tables.prepare_batch.ms": "ms",
    "tables.write.us_p50": "us",
    "runtime.fabric.walk.ms": "ms",
    "runtime.fabric.frontdoor_calls_per_pkt": "ratio",
    "runtime.fabric.rollout.gate_ms": "ms",
    "runtime.plan_cache.hits": "count",
    "compiler.compile_update.ms": "ms",
    "compiler.compile_update.calls": "count",
    "analysis.lint.ms": "ms",
    "analysis.verify.ms": "ms",
    "runtime.txn.prepare.ms": "ms",
    "runtime.txn.validate.ms": "ms",
    "runtime.txn.commit.ms": "ms",
    "runtime.txn.stall_us": "us",
    "runtime.controller.rollback.ms": "ms",
    "runtime.channel.bytes_per_update": "B",
    "bench.gen.late_ms_p99": "ms",
    "bench.unattributed_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.oracle.pkts_checked": "count",
    "bench.error_frac": "ratio",
    "bench.update_ms_p90": "ms",
    "bench.rollback_ms_p50": "ms",
}


def _channel_bytes(workload, env) -> int:
    return sum(c.channel.stats.bytes_sent for c in workload.controllers(env))


def _plan_cache_hits(workload, env) -> int:
    caches = {}
    fabric = workload.fabric(env)
    if fabric is not None and getattr(fabric, "plan_cache", None) is not None:
        caches[id(fabric.plan_cache)] = fabric.plan_cache
    for controller in workload.controllers(env):
        cache = getattr(controller, "plan_cache", None)
        if cache is not None:
            caches[id(cache)] = cache
    return sum(getattr(cache, "hits", 0) for cache in caches.values())


def _instrumented(workload, env) -> List[str]:
    """Switches with a profiler, packet tracer or INT clock attached --
    any of which would move inject_batch onto the scalar loop."""
    found = []
    for switch in workload.switches(env):
        for attr in ("profiler", "tracer", "int_clock"):
            if getattr(switch, attr, None) is not None:
                found.append(attr)
    return found


def _checkable(log: Log) -> int:
    return sum(
        packets for index, (packets, _) in log.out.items()
        if log.ops[index].check
    )


def span_metrics(spans: Spans) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics from one traced leg's spans, and the number of
    device updates (commits and rollbacks) they saw."""
    n = len(spans)
    names = [spans.name_of(i) for i in range(n)]
    parent = spans.parent
    selft = spans.self_times()
    duration = [spans.end[i] - spans.start[i] for i in range(n)]
    self_sum: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for i, name in enumerate(names):
        self_sum[name] = self_sum.get(name, 0.0) + selft[i]
        calls[name] = calls.get(name, 0) + 1

    def ms(name: str) -> float:
        return self_sum.get(name, 0.0) * 1e3

    # Span i's outermost ancestor (the bench op), and whether a fabric
    # walk encloses it; parents always precede their children.
    root = [0] * n
    in_walk = [False] * n
    for i in range(n):
        p = parent[i]
        root[i] = i if p < 0 else root[p]
        in_walk[i] = p >= 0 and (
            names[p] == "runtime.fabric.walk" or in_walk[p]
        )

    columnar = [i for i in range(n) if names[i] == "dp.columnar"]
    fixed, slope = (0.0, 0.0)
    if len({spans.size[i] for i in columnar}) > 1:
        fixed, slope = linear_fit(
            [spans.size[i] for i in columnar],
            [duration[i] * 1e6 for i in columnar],
        )

    frontdoor = [i for i in range(n) if names[i] == "frontdoor"]
    frontdoor_pkts = sum(spans.size[i] for i in frontdoor)
    fabric_pkts = sum(
        spans.size[i] for i in range(n)
        if names[i] == "runtime.fabric.walk" and not in_walk[i]
    )
    walk_frontdoor = sum(1 for i in frontdoor if in_walk[i])
    gate = sum(
        duration[i] for i in frontdoor
        if parent[i] >= 0 and names[parent[i]] == "runtime.fabric.rollout"
    )

    # Columnar time in the first burst after each program update.
    columnar_by_root: Dict[int, float] = {}
    for i in columnar:
        columnar_by_root[root[i]] = columnar_by_root.get(root[i], 0.0) + duration[i]
    after_flip = []
    flipped = False
    for i in range(n):
        if parent[i] >= 0:
            continue
        if names[i] in FLIPS:
            flipped = True
        elif names[i] == "bench.burst" and flipped:
            after_flip.append(columnar_by_root.get(i, 0.0))
            flipped = False

    updates = calls.get("runtime.controller.commit", 0) + calls.get(
        "runtime.controller.rollback", 0
    )
    writes = [duration[i] * 1e6 for i in range(n) if names[i] == "tables.write"]
    return {
        "dp.columnar.ms": ms("dp.columnar"),
        "dp.columnar.calls": calls.get("dp.columnar", 0),
        "dp.columnar.us_per_burst_fixed": fixed,
        "dp.columnar.us_per_pkt": slope,
        "dp.scalar.pkts": calls.get("dp.scalar", 0),
        "dp.scalar.ms": ms("dp.scalar"),
        "dp.scalar_share": (
            calls.get("dp.scalar", 0) / frontdoor_pkts if frontdoor_pkts else 0.0
        ),
        "dp.plan.compile_shadow.ms": ms("dp.plan.compile_shadow"),
        "dp.columnar.first_burst_after_flip_ms": percentile(after_flip, 50) * 1e3,
        "tables.lookup_batch.ms": ms("tables.lookup_batch"),
        "tables.lookup_batch.calls": calls.get("tables.lookup_batch", 0),
        "tables.lookup.ms": ms("tables.lookup"),
        "tables.lookup.calls": calls.get("tables.lookup", 0),
        "tables.prepare_batch.ms": ms("tables.prepare_batch"),
        "tables.write.us_p50": percentile(writes, 50),
        "runtime.fabric.walk.ms": ms("runtime.fabric.walk"),
        "runtime.fabric.frontdoor_calls_per_pkt": (
            walk_frontdoor / fabric_pkts if fabric_pkts else 0.0
        ),
        "runtime.fabric.rollout.gate_ms": gate * 1e3,
        "compiler.compile_update.ms": ms("compiler.compile_update"),
        "compiler.compile_update.calls": calls.get("compiler.compile_update", 0),
        "analysis.lint.ms": ms("analysis.lint"),
        "analysis.verify.ms": ms("analysis.verify"),
        "runtime.txn.prepare.ms": ms("runtime.txn.prepare"),
        "runtime.txn.validate.ms": ms("runtime.txn.validate"),
        "runtime.txn.commit.ms": ms("runtime.txn.commit"),
        "runtime.txn.stall_us": percentile(spans.stalls, 50) * 1e6,
        "runtime.controller.rollback.ms": ms("runtime.controller.rollback"),
        "bench.unattributed_ms": sum(
            selft[i] for i in range(n) if parent[i] < 0
        ) * 1e3,
    }, updates


def _traced_leg(workload, max_ops: int) -> Tuple[Log, Spans, Dict[str, float], List[str]]:
    env, _ = workload.build()
    instrumented = _instrumented(workload, env)
    bytes_before = _channel_bytes(workload, env)
    spans = Spans()
    gc.collect()
    gc.freeze()
    try:
        with Tracer(spans):
            log = run_leg(workload, env, max_ops=max_ops, keep_all=True,
                          spans=spans)
    finally:
        gc.unfreeze()
    metrics, updates = span_metrics(spans)
    metrics["runtime.channel.bytes_per_update"] = (
        (_channel_bytes(workload, env) - bytes_before) / updates
        if updates else 0.0
    )
    metrics["runtime.plan_cache.hits"] = _plan_cache_hits(workload, env)
    metrics["bench.oracle.pkts_checked"] = _checkable(log)
    return log, spans, metrics, instrumented


def _identical(a: Log, b: Log) -> List[int]:
    """Op indices whose outputs differ between two legs."""
    keys = set(a.out) | set(b.out)
    return sorted(
        i for i in keys
        if i not in a.out or i not in b.out or a.out[i] != b.out[i]
    )


def repeat_counts(workload_name: str, seed: int, max_ops: int) -> Dict[str, float]:
    """Leg C: the traced leg again, in a fresh interpreter, so that
    process-global state (hash seeds, id counters) starts over exactly
    as it did for leg B.  Returns its deterministic counts."""
    from loads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    _log, _spans, metrics, _ = _traced_leg(workload, max_ops)
    return {name: metrics[name] for name in DETERMINISTIC}


def _repeat_in_child(workload_name: str, seed: int, max_ops: int) -> Dict[str, float]:
    """Run :func:`repeat_counts` in one child interpreter and wait for
    it to end; the child starts no process of its own."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         workload_name, str(seed), str(max_ops)],
        stdout=subprocess.PIPE, env=env, timeout=150, check=True,
    )
    return json.loads(child.stdout.decode().strip().splitlines()[-1])


def per_layer(workload, seconds: float, spans_out: str):
    max_ops = max(1, round(workload.trace_ops_per_s * seconds))
    correct = True

    # Leg B runs first so that the process it starts from is the same
    # as leg C's fresh interpreter.
    log_b, spans, metrics, instrumented = _traced_leg(workload, max_ops)
    if instrumented:
        print(f"perfbench: traced run found {instrumented} attached",
              file=sys.stderr)
        correct = False

    env, _ = workload.build()
    gc.collect()
    gc.freeze()
    try:
        log_a = run_leg(workload, env, max_ops=max_ops, keep_all=True)
    finally:
        gc.unfreeze()
    del env

    counts_c = _repeat_in_child(workload.name, workload.seed, max_ops)

    checked, bad = oracle(workload, log_a)
    differing = _identical(log_a, log_b)
    if differing:
        print(f"perfbench: traced outputs differ from untraced on ops "
              f"{differing[:10]}", file=sys.stderr)
    if checked != metrics["bench.oracle.pkts_checked"]:
        print(f"perfbench: oracle checked {checked} packets, the traced "
              f"leg logged {metrics['bench.oracle.pkts_checked']}",
              file=sys.stderr)
        correct = False
    drift = {
        name: (metrics[name], counts_c[name])
        for name in DETERMINISTIC if metrics[name] != counts_c[name]
    }
    if drift:
        print(f"perfbench: DETERMINISTIC COUNTS CHANGED between two runs "
              f"with the same seed: {drift}", file=sys.stderr)
        correct = False

    failed_a = set(log_a.failed) | set(bad)
    failed = len(failed_a) + len(log_b.failed) + len(differing)
    attempted = len(log_a.ops) + len(log_b.ops)
    busy_a = log_a.busy()
    installs = log_a.seconds_of(INSTALL_KINDS)
    rollbacks = log_a.seconds_of(ROLLBACK_KINDS)
    metrics.update({
        "bench.gen.late_ms_p99": percentile(log_a.late, 99) * 1e3,
        "bench.trace_overhead_pct": (
            (log_b.busy() / busy_a - 1.0) * 100.0 if busy_a else 0.0
        ),
        "bench.error_frac": failed / attempted if attempted else 0.0,
        "bench.update_ms_p90": percentile(installs, 90) * 1e3,
        "bench.rollback_ms_p50": percentile(rollbacks, 50) * 1e3,
    })

    os.makedirs(os.path.dirname(spans_out), exist_ok=True)
    spans.write(spans_out)
    print(f"perfbench: {workload.name}: {len(log_a.ops)} ops per leg, "
          f"{len(spans)} spans written to {spans_out}", file=sys.stderr)
    ordered = {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit in UNITS.items()
    }
    return ordered, attempted, failed, correct and failed == 0


if __name__ == "__main__":
    # Leg C's child: ``layers.py WORKLOAD SEED MAX_OPS`` prints its
    # deterministic counts as one JSON line.
    name, seed_text, ops_text = sys.argv[1:4]
    print(json.dumps(repeat_counts(name, int(seed_text), int(ops_text))))
