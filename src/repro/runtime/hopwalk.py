"""The fabric's one hop walk: hop-synchronous, one batch per node.

Every way traffic crosses a fabric -- :meth:`Fabric.send`,
``send_many``, ``send_batch``, the rollout evidence checkpoint, and a
sharded :class:`~repro.runtime.workers.DeviceWorker`'s
``worker.inject_batch`` -- runs :func:`hop_walk`.  The walk proceeds
in *waves*: each wave groups the live packets by their current node
and hands each node its packets as one ``inject_batch`` call, in
original index order.  A node therefore sees packets ordered by wave
first, then by packet index (see the :mod:`repro.runtime.fabric`
docstring), and multi-packet groups reach the columnar fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: One packet mid-walk: ``(index, node, in_port, data, path, hops)``.
Hop = Tuple[int, str, int, bytes, Tuple[str, ...], int]

#: A tallied counter: ``(metric name, node, port or None)``.
CountKey = Tuple[str, str, Optional[int]]

_by_index = itemgetter(0)


class HopCounters:
    """The per-hop ``fabric.*`` counters, created on first use.

    ``fabric.injected{node}``, ``fabric.hop_forwarded{node,port}``,
    ``fabric.hop_dropped{node}`` and ``fabric.delivered{node,port}``.
    A walk tallies into :attr:`WalkResult.counts`; the caller adds the
    tally with :meth:`apply` once the walk has returned, so a walk that
    raises moves none of these counters.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._counters: Dict[CountKey, object] = {}

    def apply(self, counts: Mapping[CountKey, int]) -> None:
        for key, amount in counts.items():
            counter = self._counters.get(key)
            if counter is None:
                name, node, port = key
                labels = {"node": node}
                if port is not None:
                    labels["port"] = str(port)
                counter = self._counters[key] = self.registry.counter(
                    name, **labels
                )
            counter.inc(amount)


@dataclass
class WalkResult:
    """Where every walked packet ended up.

    ``deliveries`` holds ``(index, node, port, data, path, hops)`` per
    packet that left at an edge port; ``handoffs`` the packets that
    reached a node outside ``devices``, as :data:`Hop` tuples ready to
    resume the walk there.  ``counts`` tallies the per-hop counters,
    for :meth:`HopCounters.apply`.
    """

    deliveries: List[Hop] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    loops: List[int] = field(default_factory=list)
    handoffs: List[Hop] = field(default_factory=list)
    counts: Dict[CountKey, int] = field(default_factory=dict)


def hop_walk(
    live: List[Hop],
    devices: Mapping[str, object],
    wires: Mapping[Tuple[str, int], Tuple[str, int]],
    max_hops: int,
) -> WalkResult:
    """Walk ``live`` packets wave by wave through ``devices``.

    ``devices`` maps node names to controllers; ``wires`` maps
    ``(node, egress port)`` to ``(peer, ingress port)`` -- an unwired
    port is an edge.  A packet that has already made ``max_hops`` hops
    is cut as a loop.  Each group takes one ``switch.inject_batch``,
    which is packet-for-packet equivalent to the same ``inject``
    calls.  The walk moves no fabric counter itself: the per-hop
    counts come back tallied in :attr:`WalkResult.counts`.
    """
    result = WalkResult()
    counts = result.counts
    live = sorted(live, key=_by_index)
    while live:
        groups: Dict[str, List[Hop]] = {}
        for item in live:
            if item[1] not in devices:
                result.handoffs.append(item)
            elif item[5] >= max_hops:
                result.loops.append(item[0])
            else:
                groups.setdefault(item[1], []).append(item)
        survivors: List[Hop] = []
        for node, group in groups.items():
            outs = devices[node].switch.inject_batch(
                [(item[3], item[2]) for item in group]
            ).outputs
            for (index, _node, _port, _data, path, hops), out in zip(
                group, outs
            ):
                path += (node,)
                hops += 1
                if out is None:
                    key = ("fabric.hop_dropped", node, None)
                    counts[key] = counts.get(key, 0) + 1
                    result.dropped.append(index)
                    continue
                key = ("fabric.hop_forwarded", node, out.port)
                counts[key] = counts.get(key, 0) + 1
                wire = wires.get((node, out.port))
                if wire is None:
                    key = ("fabric.delivered", node, out.port)
                    counts[key] = counts.get(key, 0) + 1
                    result.deliveries.append(
                        (index, node, out.port, out.data, path, hops)
                    )
                else:
                    survivors.append(
                        (index, wire[0], wire[1], out.data, path, hops)
                    )
        survivors.sort(key=_by_index)
        live = survivors
    return result
