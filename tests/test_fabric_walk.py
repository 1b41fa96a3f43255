"""The hop-synchronous fabric walk against a per-packet reference.

:func:`reference_send` below is the oracle: the walk every fabric ran
before traffic moved in waves -- one packet at a time, one
``switch.inject`` per hop, each packet finished before the next one
starts.  ``inject_batch`` is packet-for-packet equivalent to N
``inject`` calls, and on a line every node sees the packets in the
same order under both walks, so every observable must match: the
deliveries, :class:`FabricStats`, the ``fabric.*`` samples, the
per-device counters and drop reasons, and the stateful C3 probe's
registers.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import (
    CASE_ARTIFACTS,
    make_int_fabric,
    make_ipsa_controller,
)
from repro.dp import columnar
from repro.net.addresses import parse_mac
from repro.obs.clock import ManualClock
from repro.programs.base_l2l3 import ROUTER_MAC
from repro.runtime.fabric import Delivery, Fabric, FabricError
from repro.workloads import ipv4_packet
from repro.workloads.traces import mixed_l3_trace, probe_trace

LINE = ("sw0", "sw1", "sw2")


# -- the oracle ----------------------------------------------------------


def reference_send(fabric, node, data, port=0):
    """One packet, hop by hop, accounted as the per-packet walk did."""
    metrics = fabric.metrics
    fabric.stats.injected += 1
    metrics.counter("fabric.injected", node=node).inc()
    path = []
    current, in_port = node, port
    for hop in range(fabric.max_hops):
        path.append(current)
        out = fabric.node(current).switch.inject(data, in_port)
        if out is None:
            fabric.stats.dropped += 1
            metrics.counter("fabric.hop_dropped", node=current).inc()
            return None
        metrics.counter(
            "fabric.hop_forwarded", node=current, port=str(out.port)
        ).inc()
        wire = fabric.peer(current, out.port)
        if wire is None:
            fabric.stats.delivered += 1
            metrics.counter(
                "fabric.delivered", node=current, port=str(out.port)
            ).inc()
            delivered = out.data
            if fabric.int_collector is not None:
                ingest = fabric.int_collector.ingest(
                    delivered, node=current, port=out.port
                )
                if fabric._int_strip:
                    delivered = ingest.stripped
            return Delivery(current, out.port, delivered, hop + 1, tuple(path))
        data = out.data
        current, in_port = wire
    fabric.stats.loops_cut += 1
    return None


def reference_send_many(fabric, node, trace):
    return [reference_send(fabric, node, data, port) for data, port in trace]


# -- topologies ----------------------------------------------------------


def route_onward(controller, port=3):
    """Send next hop 2 to the router MAC out ``port``, so traffic for
    network 2 keeps routing at the peer wired there."""
    router_mac = parse_mac(ROUTER_MAC)
    nexthop = controller.api("nexthop")
    nexthop.remove(next(e for e in nexthop.entries() if e.key == (2,)))
    nexthop.install((2,), "set_bd_dmac", {"bd": 2, "dmac": router_mac})
    controller.api("dmac").install(
        (2, router_mac), "set_egress_port", {"port": port}
    )


def probe_line(columnar_enabled=True):
    """sw0 - sw1 - sw2 with the stateful C3 flow probe on sw0."""
    fabric = Fabric()
    for name in LINE:
        fabric.add_node(name, make_ipsa_controller("base"))
    for left, right in zip(LINE, LINE[1:]):
        fabric.wire(left, 3, right, 0)
    for name in LINE[:-1]:
        route_onward(fabric.node(name))
    script, snippet, source_name, populate, _ = CASE_ARTIFACTS["C3"]
    sw0 = fabric.node("sw0")
    sw0.stage_update(script(), {source_name: snippet()}).commit()
    populate(sw0.switch.tables)
    for name in LINE:
        fabric.node(name).switch.dp.columnar_enabled = columnar_enabled
    return fabric


def self_loop(max_hops=3):
    """One node whose network-2 traffic comes straight back in."""
    fabric = Fabric(max_hops=max_hops)
    route_onward(fabric.add_node("A", make_ipsa_controller("base")))
    fabric.wire("A", 3, "A", 0)
    return fabric


# -- observables ---------------------------------------------------------


def wire_view(deliveries):
    return [
        None if d is None else (d.node, d.port, d.data, d.hops, d.path)
        for d in deliveries
    ]


def _cells(register):
    return [register.read(i) for i in range(register.size)]


def observables(fabric):
    if fabric.sharded:
        fabric.sync_metrics()  # pull the workers' fabric.* counters in
    devices = {}
    for name, controller in fabric.nodes.items():
        switch = controller.switch
        devices[name] = {
            "counters": (
                switch.packets_in,
                switch.packets_out,
                switch.packets_dropped,
                switch.punted,
                switch.clock,
            ),
            "drop_reasons": dict(switch.drop_reasons),
            "registers": {
                reg: _cells(array)
                for reg, array in switch.externs.registers.items()
            },
            "sketches": {
                sketch: [_cells(row) for row in array.rows]
                for sketch, array in switch.externs.sketches.items()
            },
        }
    samples = sorted(
        (s.name, tuple(sorted(s.labels.items())), s.value)
        for s in fabric.metrics.collect()
        if s.name.startswith("fabric.")
    )
    return {"stats": asdict(fabric.stats), "fabric": samples, "devices": devices}


def record_arrivals(fabric):
    """Log every ``(data, port)`` each node is handed, in order."""
    arrivals = {name: [] for name in fabric.nodes}
    for name, controller in fabric.nodes.items():
        switch = controller.switch

        def inject(data, port=0, *rest, _log=arrivals[name], _real=switch.inject):
            _log.append((data, port))
            return _real(data, port, *rest)

        def inject_batch(trace, *rest, _log=arrivals[name],
                         _real=switch.inject_batch):
            trace = list(trace)
            _log.extend(trace)
            return _real(trace, *rest)

        switch.inject = inject
        switch.inject_batch = inject_batch
    return arrivals


def assert_matches_reference(walked, reference, batches, same_order=True):
    """Send every batch through both fabrics and compare everything.

    With ``same_order`` the order in which each node saw its packets
    must match too -- true wherever no two paths of unequal length
    meet at a node.
    """
    walked_arrivals = record_arrivals(walked)
    reference_arrivals = record_arrivals(reference)
    for node, trace in batches:
        expected = reference_send_many(reference, node, trace)
        got = walked.send_many(node, trace)
        assert wire_view(got) == wire_view(expected)
    if same_order:
        assert walked_arrivals == reference_arrivals
    assert observables(walked) == observables(reference)


# -- oracle cases --------------------------------------------------------


@st.composite
def probe_fabric_batches(draw):
    """A shuffled mix of mixed_l3_trace and probe_trace, cut into
    consecutive send_many batches (the probe's registers carry state
    from one batch to the next)."""
    seed = draw(st.integers(0, 2**16))
    pool = mixed_l3_trace(draw(st.integers(1, 40)), seed=seed) + probe_trace(
        draw(st.integers(1, 24)), seed=seed
    )
    order = draw(st.permutations(range(len(pool))))
    pool = [pool[i] for i in order]
    cuts = sorted(draw(st.lists(st.integers(0, len(pool)), max_size=3)))
    edges = [0, *cuts, len(pool)]
    return [
        ("sw0", pool[a:b]) for a, b in zip(edges, edges[1:]) if b > a
    ]


@pytest.mark.parametrize("columnar_enabled", [True, False])
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches=probe_fabric_batches())
def test_probe_line_matches_reference(columnar_enabled, batches):
    assert_matches_reference(
        probe_line(columnar_enabled), probe_line(columnar_enabled), batches
    )


def test_drops_at_every_hop_match_reference():
    # TTL 1 expires at sw0, TTL 2 at sw1, TTL 3 at sw2; port 42 has no
    # bridge domain; the rest deliver.
    trace = [
        (ipv4_packet("10.1.0.1", "10.2.0.5", sport=2000 + i, ttl=ttl), port)
        for i, (ttl, port) in enumerate(
            [(64, 0), (1, 0), (2, 1), (3, 0), (64, 42), (2, 0), (64, 1)] * 3
        )
    ]
    walked, reference = probe_line(), probe_line()
    assert_matches_reference(walked, reference, [("sw0", trace)])
    assert walked.stats.dropped == 15
    assert walked.stats.delivered == 6
    drops = {
        name: walked.metrics.value("fabric.hop_dropped", node=name)
        for name in LINE
    }
    assert drops == {"sw0": 6, "sw1": 6, "sw2": 3}


def test_loop_cut_matches_reference():
    # Network-2 traffic circles A until max_hops cuts it; network-1
    # traffic leaves at the edge on the first hop.
    trace = [
        (ipv4_packet("10.1.0.1", f"10.{net}.0.5", sport=3000 + i), 0)
        for i, net in enumerate([2, 1, 2, 2, 1, 1, 2, 1])
    ]
    walked, reference = self_loop(), self_loop()
    # A is a merge point (a packet's second visit meets the first visit
    # of the packets behind it), so only the arrival order differs.
    assert_matches_reference(walked, reference, [("A", trace)], same_order=False)
    assert walked.stats.loops_cut == 4
    assert walked.stats.delivered == 4
    assert walked.node("A").switch.packets_in == 4 * 3 + 4


def test_sharded_walk_matches_reference():
    trace = mixed_l3_trace(20, seed=5) + probe_trace(12, seed=5)
    walked, reference = probe_line(), probe_line()
    walked.shard(2, start=False)
    try:
        assert_matches_reference(walked, reference, [("sw0", trace)])
    finally:
        walked.unshard()


# -- an unknown start node moves no counter ------------------------------


def accounting(fabric):
    return asdict(fabric.stats), fabric.metrics.to_prometheus()


@pytest.mark.parametrize("sharded", [False, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda fabric, data: fabric.send("typo", data, 0),
        lambda fabric, data: fabric.send_many("typo", [(data, 0)] * 3),
        lambda fabric, data: fabric.send_batch(
            [("sw0", data, 0), ("typo", data, 0), ("sw1", data, 0)]
        ),
    ],
    ids=["send", "send_many", "send_batch"],
)
def test_unknown_start_node_leaves_accounting_untouched(call, sharded):
    fabric = probe_line()
    data = ipv4_packet("10.1.0.1", "10.2.0.5")
    fabric.send("sw0", data, 0)
    if sharded:
        fabric.shard(2, start=False)
    try:
        before = accounting(fabric)
        packets_in = [c.switch.packets_in for c in fabric.nodes.values()]
        with pytest.raises(FabricError, match="typo"):
            call(fabric, data)
        assert accounting(fabric) == before
        assert [c.switch.packets_in for c in fabric.nodes.values()] == (
            packets_in
        )
        assert 'node="typo"' not in fabric.metrics.to_prometheus()
    finally:
        fabric.unshard()


# -- a switch raising mid-walk moves no fabric accounting -----------------


class RecordingCollector:
    def __init__(self):
        self.seen = []

    def ingest(self, data, node, port):
        self.seen.append((node, port))


def fabric_injected(fabric):
    return sorted(
        (tuple(sorted(sample.labels.items())), sample.value)
        for sample in fabric.metrics.collect()
        if sample.name == "fabric.injected"
    )


@pytest.mark.parametrize("sharded", [False, True])
def test_switch_raising_mid_walk_leaves_accounting_untouched(sharded):
    # A - B - M: the packet starting at M exits on wave 0, before B's
    # batch raises on wave 1.
    fabric = Fabric()
    for name in ("A", "B", "M"):
        fabric.add_node(name, make_ipsa_controller("base"))
    fabric.wire("A", 3, "B", 0)
    fabric.wire("B", 3, "M", 0)
    route_onward(fabric.node("A"))
    route_onward(fabric.node("B"))
    collector = RecordingCollector()
    fabric.attach_int_collector(collector, strip=False)
    data = ipv4_packet("10.1.0.1", "10.2.0.5")
    items = [("M", data, 0), ("A", data, 0)]
    fabric.send_batch(items)
    seen = list(collector.seen)

    b_switch = fabric.node("B").switch

    def fail(*args, **kwargs):
        raise RuntimeError("B failed mid-walk")

    b_switch.inject = b_switch.inject_batch = fail
    if sharded:
        fabric.shard(2, start=False)
    try:
        before = accounting(fabric)
        injected = fabric_injected(fabric)
        with pytest.raises(Exception, match="B failed mid-walk"):
            fabric.send_batch(items)
        assert fabric.node("M").switch.packets_in == 2 + 1  # M ran wave 0
        assert asdict(fabric.stats) == before[0]
        assert fabric_injected(fabric) == injected
        assert collector.seen == seen
        if not sharded:
            assert accounting(fabric) == before
        del b_switch.inject, b_switch.inject_batch
        fabric.send_batch(items)
        stats = fabric.stats
        assert stats.injected == stats.delivered + stats.dropped + stats.loops_cut
        assert stats.delivered == 4
    finally:
        fabric.unshard()


# -- ordering where paths merge ------------------------------------------


def sport_of(data):
    return int.from_bytes(data[34:36], "big")


def test_merge_point_sees_wave_then_index_order():
    # A - B - M: a packet starting at A reaches M on wave 2, one
    # starting at B on wave 1, one starting at M on wave 0.
    fabric = Fabric()
    for name in ("A", "B", "M"):
        fabric.add_node(name, make_ipsa_controller("base"))
    fabric.wire("A", 3, "B", 0)
    fabric.wire("B", 3, "M", 0)
    route_onward(fabric.node("A"))
    route_onward(fabric.node("B"))

    arrivals = record_arrivals(fabric)
    starts = ["A", "B", "M", "A", "B", "M"]
    items = [
        (start, ipv4_packet("10.1.0.1", "10.2.0.5", sport=1000 + i), 0)
        for i, start in enumerate(starts)
    ]
    deliveries = fabric.send_batch(items)

    # Wave 0: packets 2 and 5; wave 1: 1 and 4; wave 2: 0 and 3.
    assert [sport_of(data) for data, _port in arrivals["M"]] == [
        1002, 1005, 1001, 1004, 1000, 1003,
    ]
    # Deliveries still come back index-aligned.
    assert [d.path for d in deliveries] == [
        ("A", "B", "M"), ("B", "M"), ("M",),
    ] * 2
    assert [sport_of(d.data) for d in deliveries] == list(range(1000, 1006))


# -- structural guard: fabric traffic reaches the columnar path -----------


def test_line_send_many_is_one_batch_per_node_and_wave(monkeypatch):
    fabric = probe_line()
    calls = []
    for name, controller in fabric.nodes.items():
        switch = controller.switch

        def inject(*args, _name=name, _real=switch.inject, **kwargs):
            calls.append(("inject", _name))
            return _real(*args, **kwargs)

        def inject_batch(*args, _name=name, _real=switch.inject_batch, **kwargs):
            calls.append(("inject_batch", _name))
            return _real(*args, **kwargs)

        monkeypatch.setattr(switch, "inject", inject)
        monkeypatch.setattr(switch, "inject_batch", inject_batch)

    vectorized = {}
    real_try = columnar.try_run_batch

    def try_run_batch(core, items):
        outputs = real_try(core, items)
        node = next(
            name for name, c in fabric.nodes.items() if c.switch is core.device
        )
        vectorized[node] = outputs is not None
        return outputs

    monkeypatch.setattr(columnar, "try_run_batch", try_run_batch)

    trace = mixed_l3_trace(96, seed=3) + probe_trace(32, seed=3)
    deliveries = fabric.send_many("sw0", trace)

    assert len(trace) == 128
    assert sum(1 for d in deliveries if d and d.node == "sw2") >= 8
    # A line: every packet enters each node on the same wave.
    assert calls == [
        ("inject_batch", "sw0"),
        ("inject_batch", "sw1"),
        ("inject_batch", "sw2"),
    ]
    assert vectorized["sw1"] and vectorized["sw2"]


# -- INT under batching --------------------------------------------------


def int_line():
    return make_int_fabric(
        n_nodes=3, clock=ManualClock(start=1.0, tick=1e-6), strip="edge"
    )


def hop_latencies(record):
    return [hop["latency_ns"] for hop in record["hops"]]


def test_one_packet_int_send_matches_reference():
    (walked, walked_col), (reference, reference_col) = int_line(), int_line()
    for sport in (1024, 1025, 1026):
        packet = ipv4_packet("10.1.0.1", "10.2.0.1", sport=sport)
        got = walked.send("sw0", packet, 0)
        expected = reference_send(reference, "sw0", packet, 0)
        assert wire_view([got]) == wire_view([expected])
    assert walked_col.records == reference_col.records
    assert [hop_latencies(r) for r in walked_col.records] == [
        hop_latencies(r) for r in reference_col.records
    ]


def test_batched_int_keeps_hop_latency_and_adds_wave_time_between_hops():
    (walked, walked_col), (reference, reference_col) = int_line(), int_line()
    trace = [
        (ipv4_packet("10.1.0.1", "10.2.0.1", sport=1024 + i), 0)
        for i in range(6)
    ]
    walked.send_many("sw0", trace)
    reference_send_many(reference, "sw0", trace)
    walked_records, reference_records = walked_col.records, reference_col.records
    assert len(walked_records) == len(reference_records) == len(trace)
    # Inside one switch a packet's ingress-to-egress time is unchanged.
    assert [hop_latencies(r) for r in walked_records] == [
        hop_latencies(r) for r in reference_records
    ]
    # Between hops it now waits for the rest of its wave upstream.
    walked_e2e = [r["e2e_latency_ns"] for r in walked_records]
    reference_e2e = [r["e2e_latency_ns"] for r in reference_records]
    assert all(w >= r for w, r in zip(walked_e2e, reference_e2e))
    assert walked_e2e[0] > reference_e2e[0]
