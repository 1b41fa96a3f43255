"""The four workloads, built through the program's public APIs.

Each workload turns a seed into inputs (``generate``), builds the
devices (``build``), and yields an endless, seed-determined stream of
operations (``ops``) that ``apply`` executes.  The program only ever
sees the generated packets and scripts.

* ``l3_edge`` -- one IPSA switch, base + C1 ECMP loaded in situ;
  closed-loop log-normal bursts through ``inject_batch``.  Exercises
  the columnar path and the batch table lookups.
* ``probe_fabric`` -- a 3-node line fabric, C3 flow probe on the
  ingress node; closed-loop 128-packet ``Fabric.send_many``.
  Exercises the hop walk, the scalar interpreter and the stateful
  register path; columnar does no work here.
* ``update_churn`` -- one IPSA switch, base; open-loop bursts at a
  fixed offered rate, with ``TableApi`` route writes and in-situ
  program updates (C1 install / rollback) between them.  Writes
  beside reads, the paper's own claim.
* ``fleet_rollout`` -- 200 base devices on a default fabric;
  ``staged_rollout`` of SRv6 and ``rollback_all``, each followed by a
  one-packet sweep of every node.  The control plane repeated once per
  node, with almost no packets.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace
from typing import Iterator, List, NamedTuple, Optional, Tuple

from arith import burst_sizes, due_offsets

from repro.bench.scenarios import CASE_ARTIFACTS, make_fleet, make_ipsa_controller
from repro.net.addresses import format_ipv4, parse_ipv4, parse_mac
from repro.programs import srv6_load_script, srv6_rp4_source
from repro.programs.base_l2l3 import ROUTER_MAC
from repro.programs.srv6 import LOCAL_SIDS
from repro.runtime.fabric import Fabric
from repro.workloads.builders import ipv4_packet, ipv6_packet, srv6_packet
from repro.workloads.traces import mixed_l3_trace, probe_trace

#: Operation kinds that carry packets.
DATA_KINDS = ("burst", "send")
#: Operation kinds that put a program live (one device, or a fleet),
#: and those that take it back out.
INSTALL_KINDS = ("install", "rollout")
ROLLBACK_KINDS = ("rollback", "rollback_all")


class Op(NamedTuple):
    kind: str
    arg: object
    #: Packets the op carries (0 for control operations).
    pkts: int = 0
    #: Open-loop due time, seconds after the run starts (None: closed loop).
    due: Optional[float] = None
    #: Whether the oracle replays and compares this op's outputs.
    check: bool = False


def port_outs(result) -> Tuple:
    """A switch batch result as ``(port, bytes, to_cpu)`` per packet,
    ``None`` for a drop."""
    return tuple(
        None if out is None else (out.port, out.data, out.to_cpu)
        for out in result
    )


def deliveries(result) -> Tuple:
    """Fabric deliveries as ``(node, port, bytes)``, ``None`` for a drop."""
    return tuple(
        None if d is None else (d.node, d.port, d.data) for d in result
    )


def _slices(pool: List, sizes: List[int]) -> Iterator[List]:
    """Consecutive slices of ``pool`` with the given sizes, wrapping."""
    cursor = 0
    for size in sizes:
        end = cursor + size
        if end <= len(pool):
            chunk = pool[cursor:end]
        else:
            end -= len(pool)
            chunk = pool[cursor:] + pool[:end]
        cursor = end % len(pool)
        yield chunk


def _timed_install(controller, case: str) -> float:
    """Load ``case`` in situ (stage, commit, populate); wall seconds."""
    script, snippet, name, populate, _ = CASE_ARTIFACTS[case]
    start = time.perf_counter()
    controller.stage_update(script(), {name: snippet()}).commit()
    populate(controller.switch.tables)
    return time.perf_counter() - start


class Workload:
    name = ""
    #: An untraced run splits its timed region into this many
    #: repetitions, each on its own inputs and on fresh devices from its
    #: own set-ups, so that a run covers several op streams and the
    #: set-ups (and the in-situ loads they time) spread over the run.
    repeats = 4
    #: Set-ups before each repetition.
    setups = 6
    #: Operations per second of ``--seconds`` in a traced run (which is
    #: bounded by operation count so its counts repeat exactly).
    trace_ops_per_s = 100.0
    #: Percentile reported as ``burst_ms_tail``.
    tail_q = 99.0
    #: Whether ops are due on a schedule (else each follows the last).
    open_loop = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.generate()

    def generate(self) -> None:
        """Make the run's inputs from the seed (excluded from set-up)."""

    def build(self, columnar: bool = True):
        """Build and warm the devices; returns ``(env, update_seconds)``
        where ``update_seconds`` is the in-situ load done in set-up
        (None if there is none)."""
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def apply(self, env, op: Op):
        """Execute one op; returns its raw outputs (data ops) or None.
        Raises on failure, including a wrong design left live."""
        raise NotImplementedError

    def outputs(self, raw) -> Tuple:
        return port_outs(raw)

    def switches(self, env) -> List:
        return [c.switch for c in self.controllers(env)]

    def controllers(self, env) -> List:
        return [env.controller]

    def fabric(self, env) -> Optional[Fabric]:
        return None

    def oracle_plan(self, log: List[Op]) -> List[Tuple[int, Op]]:
        """The ``(log index, op)`` pairs to replay on the twin, in order.
        Data ops whose outputs are not checked are skipped: they carry
        no state on these programs except where every op is checked."""
        return [
            (i, op) for i, op in enumerate(log)
            if op.kind not in DATA_KINDS or op.check
        ]

    def oracle_key(self, index: int, op: Op) -> int:
        """The twin replay index whose outputs ``log[index]`` must match."""
        return index

    @staticmethod
    def disable_columnar(switches) -> None:
        for switch in switches:
            switch.dp.columnar_enabled = False


class L3Edge(Workload):
    name = "l3_edge"
    #: Share of bursts the oracle replays (the program is stateless).
    check_share = 0.04

    def generate(self) -> None:
        self.pool = mixed_l3_trace(8192, seed=self.seed)
        self.sizes = burst_sizes(self.seed, 20000)

    def build(self, columnar: bool = True):
        controller = make_ipsa_controller("base")
        if not columnar:
            self.disable_columnar([controller.switch])
        seconds = _timed_install(controller, "C1")
        controller.switch.inject_batch(self.pool[:256])  # warm-up burst
        return SimpleNamespace(controller=controller), seconds

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed * 7 + 1)
        while True:
            for chunk in _slices(self.pool, self.sizes):
                yield Op("burst", chunk, len(chunk),
                         check=rng.random() < self.check_share)

    def apply(self, env, op: Op):
        return env.controller.switch.inject_batch(op.arg)


class ProbeFabric(Workload):
    name = "probe_fabric"
    repeats = 2  # 128-packet sends take about 40-60 ms each
    trace_ops_per_s = 6.0
    tail_q = 90.0
    batch = 128

    def generate(self) -> None:
        pool = mixed_l3_trace(7168, seed=self.seed) + probe_trace(
            3072, seed=self.seed
        )
        random.Random(self.seed).shuffle(pool)
        self.pool = pool

    def build(self, columnar: bool = True):
        # sw0 - sw1 - sw2: the make_int_fabric wiring without INT.
        # Transit nodes route next hop 2 to the router MAC out port 3,
        # so traffic to network 2 crosses all three nodes.
        fabric = Fabric()
        names = ["sw0", "sw1", "sw2"]
        for name in names:
            fabric.add_node(name, make_ipsa_controller("base"))
        for left, right in zip(names, names[1:]):
            fabric.wire(left, 3, right, 0)
        router_mac = parse_mac(ROUTER_MAC)
        for name in names[:-1]:
            controller = fabric.node(name)
            nexthop = controller.api("nexthop")
            nexthop.remove(next(e for e in nexthop.entries() if e.key == (2,)))
            nexthop.install((2,), "set_bd_dmac", {"bd": 2, "dmac": router_mac})
            controller.api("dmac").install(
                (2, router_mac), "set_egress_port", {"port": 3}
            )
        if not columnar:
            self.disable_columnar([fabric.node(name).switch for name in names])
        seconds = _timed_install(fabric.node("sw0"), "C3")
        fabric.send_many("sw0", self.pool[-self.batch:])  # warm-up batch
        return SimpleNamespace(fabric=fabric), seconds

    def ops(self) -> Iterator[Op]:
        # Every send is checked: the flow probe's registers carry
        # state from one packet to the next.
        n = len(self.pool) // self.batch
        while True:
            for i in range(n):
                chunk = self.pool[i * self.batch:(i + 1) * self.batch]
                yield Op("send", chunk, len(chunk), check=True)

    def apply(self, env, op: Op):
        return env.fabric.send_many("sw0", op.arg)

    def outputs(self, raw) -> Tuple:
        return deliveries(raw)

    def controllers(self, env) -> List:
        return [env.fabric.node(name) for name in env.fabric.nodes]

    def fabric(self, env) -> Optional[Fabric]:
        return env.fabric


class UpdateChurn(Workload):
    name = "update_churn"
    #: Offered load, on the reference clock of ``speed``: about 0.4 of
    #: the closed-loop rate of this op mix (about 13k pkt/s on a 2-core
    #: box), so that a slow spell of the host alone builds no backlog.
    rate_pps = 5000.0
    #: About 400 bursts per 4 s repetition: p99 would rest on the 4
    #: slowest, and one 30 ms stall (a GC pass, a host hiccup) delays
    #: about 7 bursts in a row.  p90-p99, pooled or per repetition, and
    #: the mean of the slowest 5 % all spread 0.10-0.19 over six seeds.
    tail_q = 95.0
    open_loop = True
    check_share = 0.04
    trace_ops_per_s = 50.0
    write_every = 4
    routes_per_write = 8

    def generate(self) -> None:
        self.pool = mixed_l3_trace(8192, seed=self.seed)
        self.sizes = burst_sizes(self.seed, 40000)
        self.due = due_offsets(self.sizes, self.rate_pps)

    def build(self, columnar: bool = True):
        controller = make_ipsa_controller("base")
        if not columnar:
            self.disable_columnar([controller.switch])
        # Warm-up: one install and rollback, so that the first timed
        # update does not pay the process's one-time lazy imports.
        _timed_install(controller, "C1")
        controller.rollback()
        controller.switch.inject_batch(self.pool[:256])  # warm-up burst
        env = SimpleNamespace(
            controller=controller,
            lpm=controller.api("ipv4_lpm"),
            routes={},
        )
        return env, None

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed * 7 + 2)
        next_update = rng.randint(8, 12)
        install = True
        for i, chunk in enumerate(_slices(self.pool, self.sizes)):
            yield Op("burst", chunk, len(chunk), due=self.due[i],
                     check=rng.random() < self.check_share)
            if (i + 1) % self.write_every == 0:
                flows = rng.sample(range(64), self.routes_per_write)
                yield Op("write", [(f, rng.randint(1, 3)) for f in flows])
            next_update -= 1
            if next_update == 0:
                yield Op("install" if install else "rollback", None)
                install = not install
                next_update = rng.randint(8, 12)
        raise RuntimeError("update_churn schedule exhausted")

    def apply(self, env, op: Op):
        controller = env.controller
        if op.kind == "burst":
            return controller.switch.inject_batch(op.arg)
        if op.kind == "write":
            base = parse_ipv4("10.2.0.0")
            for flow, nexthop in op.arg:
                old = env.routes.get(flow)
                if old is not None:
                    env.lpm.remove(old)
                env.routes[flow] = env.lpm.install(
                    (1, (base + 1 + flow, 32)), "set_nexthop",
                    {"nexthop": nexthop},
                )
            return None
        if op.kind == "install":
            _timed_install(controller, "C1")
            expect_live = True
        else:
            controller.rollback()
            expect_live = False
        if ("ecmp_ipv4" in controller.switch.tables) != expect_live:
            raise RuntimeError(f"wrong design live after {op.kind}")
        return None


class FleetRollout(Workload):
    name = "fleet_rollout"
    nodes = 200
    wave_size = 20
    repeats = 2  # a rollout round takes 1.5-2.5 s
    setups = 3
    tail_q = 90.0
    #: Nodes per sweep call: enough calls per run (about 150) for p90.
    sweep_size = 10
    #: A rollout, a rollback and a sweep of every node after each.
    ops_per_round = 2 + 2 * (nodes // sweep_size)
    trace_ops_per_s = 0.2 * ops_per_round  # one round per 5 s

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.script = srv6_load_script()
        self.sources = {"srv6.rp4": srv6_rp4_source()}
        self.gate = [
            (ipv4_packet("10.1.0.1", format_ipv4(parse_ipv4("10.2.0.1")
                                                 + rng.randint(1, 250))), 0)
        ]
        self.names = [f"n{i}" for i in range(self.nodes)]
        # One sweep packet per node: SRv6 to one of the node's SIDs
        # (End behaviour once SRv6 is live), SRv6 transit, or plain
        # IPv4 / IPv6 routed traffic.
        self.sweep = []
        for _ in self.names:
            pick = rng.randrange(4)
            if pick == 0:
                data = srv6_packet(
                    src="2001:db8:9::1",
                    active_sid=LOCAL_SIDS[rng.randrange(len(LOCAL_SIDS))],
                    segments=["2001:db8:2::1", LOCAL_SIDS[0]],
                    segments_left=1,
                )
            elif pick == 1:
                data = srv6_packet(
                    src="2001:db8:9::1",
                    active_sid="2001:db8:1::77",
                    segments=["2001:db8:2::1", "2001:db8:1::77"],
                    segments_left=1,
                )
            elif pick == 2:
                data = ipv4_packet("10.1.0.1", f"10.2.0.{rng.randint(1, 250)}",
                                   sport=rng.randint(1024, 65535))
            else:
                data = ipv6_packet("2001:db8:1::1",
                                   f"2001:db8:2::{rng.randint(1, 0xfff):x}")
            self.sweep.append((data, rng.randrange(2)))

    def build(self, columnar: bool = True):
        fabric = make_fleet(self.nodes)
        switches = [fabric.node(name).switch for name in self.names]
        if not columnar:
            self.disable_columnar(switches)
        for switch in switches:
            switch.dp.plan()
        for name, (data, port) in zip(self.names, self.sweep):
            fabric.send(name, data, port)  # warm-up sweep
        return SimpleNamespace(fabric=fabric), None

    def ops(self) -> Iterator[Op]:
        # After each fleet change, sweep every node with one packet,
        # sweep_size nodes per send_batch.
        items = [
            (name, data, port)
            for name, (data, port) in zip(self.names, self.sweep)
        ]
        groups = [
            items[i:i + self.sweep_size]
            for i in range(0, len(items), self.sweep_size)
        ]
        round_no = 0
        while True:
            for phase in ("rollout", "rollback_all"):
                # A rollout's gate sends one probe through every node.
                yield Op(phase, round_no,
                         self.nodes * len(self.gate) if phase == "rollout" else 0)
                for group in groups:
                    yield Op("send", group, len(group), check=True)
            round_no += 1

    def apply(self, env, op: Op):
        fabric = env.fabric
        if op.kind == "send":
            return fabric.send_batch(op.arg)
        if op.kind == "rollout":
            fabric.staged_rollout(
                self.script, self.sources, wave_size=self.wave_size,
                probe_trace=self.gate,
            )
            expect_live = True
        else:
            fabric.rollback_all()
            expect_live = False
        wrong = [
            name for name in self.names
            if ("local_sid" in fabric.node(name).switch.tables) != expect_live
        ]
        if wrong:
            raise RuntimeError(
                f"wrong design live on {len(wrong)} nodes after {op.kind}"
            )
        return None

    def outputs(self, raw) -> Tuple:
        return deliveries(raw)

    def controllers(self, env) -> List:
        return [env.fabric.node(name) for name in self.names]

    def fabric(self, env) -> Optional[Fabric]:
        return env.fabric

    def oracle_plan(self, log: List[Op]) -> List[Tuple[int, Op]]:
        # Every round starts from the same design (rollback_all restores
        # it), so one round replayed on the twin is the reference for
        # the sweeps of every round.
        ops = self.ops()
        return [(i, next(ops)) for i in range(self.ops_per_round)]

    def oracle_key(self, index: int, op: Op) -> int:
        return index % self.ops_per_round


WORKLOADS = {
    cls.name: cls for cls in (L3Edge, ProbeFabric, UpdateChurn, FleetRollout)
}
