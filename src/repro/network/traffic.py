"""Synthetic traffic: the classic patterns, Bernoulli-injected.

The gem5/Garnet sweeps the evaluation mirrors stress a network with
*synthetic* traffic — address-permutation patterns that concentrate load
in characteristic ways — rather than application messages, because a
pattern's saturation point is a property of the topology × routing
design alone.  The five classics (Dally & Towles' taxonomy) are:

* ``uniform`` — every injection draws a destination uniformly at random;
* ``bit-rotation`` — destination is the source's address rotated right
  one bit;
* ``shuffle`` — rotated left one bit (the perfect-shuffle permutation);
* ``transpose`` — the address halves swapped (matrix transpose: all
  traffic crosses the diagonal, the worst case for dimension-order);
* ``hotspot`` — a fraction of injections target one hot node, the rest
  uniform (the Section 2.1.1 congestion story as an open-loop load).

Injection is Bernoulli: each node, each cycle, offers a message with
probability ``rate`` (the injection-rate knob the sweep drives to
saturation).  All randomness flows from one seeded RNG, so a run is a
pure function of ``(pattern, rate, seed)`` — the determinism regression
pins this.

:class:`TrafficSource` and :class:`TrafficSink` are
:class:`~repro.sim.component.SimComponent`\\ s; :func:`run_traffic`
assembles source → fabric → sink under a
:class:`~repro.sim.kernel.SimKernel` and measures accepted throughput
and delivery latency over a post-warmup window.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.errors import NetworkError, RoutingError, SimStallError
from repro.network.fabric import Fabric
from repro.network.routing import RoutingPolicy
from repro.network.topology import Topology, build_topology
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import pack_destination
from repro.sim.component import SimComponent
from repro.sim.kernel import SimKernel

#: Message type used by all synthetic traffic.
TRAFFIC_MTYPE = 3

#: Pattern names accepted by :func:`pattern_destination`.
PATTERNS = ("uniform", "bit-rotation", "shuffle", "transpose", "hotspot")

#: Fraction of ``hotspot`` injections aimed at the hot node.
HOTSPOT_FRACTION = 0.2


def _address_bits(n_nodes: int, pattern: str) -> int:
    bits = n_nodes.bit_length() - 1
    if n_nodes < 2 or (1 << bits) != n_nodes:
        raise RoutingError(
            f"{pattern} traffic needs a power-of-two node count, got {n_nodes}"
        )
    return bits


def pattern_destination(
    pattern: str,
    node: int,
    n_nodes: int,
    rng: random.Random,
    hot_node: int = 0,
) -> int:
    """The destination one injection at ``node`` targets.

    Permutation patterns (bit-rotation, shuffle, transpose) are pure
    functions of the source address and need a power-of-two node count;
    ``uniform`` and ``hotspot`` draw from ``rng``.  May return ``node``
    itself (a self-addressed message still exercises the ejection path).
    """
    if pattern == "uniform":
        return rng.randrange(n_nodes)
    if pattern == "hotspot":
        if rng.random() < HOTSPOT_FRACTION:
            return hot_node
        return rng.randrange(n_nodes)
    if pattern == "bit-rotation":
        bits = _address_bits(n_nodes, pattern)
        return (node >> 1) | ((node & 1) << (bits - 1))
    if pattern == "shuffle":
        bits = _address_bits(n_nodes, pattern)
        return ((node << 1) | (node >> (bits - 1))) & (n_nodes - 1)
    if pattern == "transpose":
        bits = _address_bits(n_nodes, pattern)
        if bits % 2:
            raise RoutingError(
                f"transpose traffic needs an even address width, got "
                f"{n_nodes} nodes ({bits} bits)"
            )
        half = bits // 2
        return ((node >> half) | (node << half)) & (n_nodes - 1)
    raise RoutingError(
        f"unknown traffic pattern {pattern!r}; known: {', '.join(PATTERNS)}"
    )


class TrafficSource(SimComponent):
    """Bernoulli open-loop injector across every node.

    One component drives all nodes (a per-node component at 256 nodes
    would spend more time in the kernel scan than in the work).  Each
    cycle up to ``duration``, each node offers a message with
    probability ``rate``; an offer whose SEND cannot be accepted (output
    queue full — the backpressure chain reaching the processor) counts
    as ``refused_offers`` and is dropped, keeping the load open-loop so
    post-saturation behaviour is measurable instead of self-throttling.
    """

    name = "traffic-source"

    def __init__(
        self,
        fabric: Fabric,
        pattern: str,
        rate: float,
        seed: int,
        duration: int,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise NetworkError(f"injection rate must be in [0, 1], got {rate}")
        if pattern not in PATTERNS:
            raise RoutingError(
                f"unknown traffic pattern {pattern!r}; known: {', '.join(PATTERNS)}"
            )
        self.fabric = fabric
        self.pattern = pattern
        self.rate = rate
        self.rng = random.Random(seed)
        self.duration = duration
        self.offered = 0
        self.accepted = 0
        self.refused_offers = 0
        self.handle = None  # bound by run_traffic after registration

    def tick(self, cycle: int) -> None:
        if cycle > self.duration:
            if self.handle is not None:
                self.handle.sleep()
            return
        fabric = self.fabric
        n = fabric.topology.n_nodes
        rate = self.rate
        rng = self.rng
        for node in range(n):
            if rng.random() >= rate:
                continue
            destination = pattern_destination(self.pattern, node, n, rng)
            self.offered += 1
            ni = fabric.interfaces[node]
            ni.write_output(0, pack_destination(destination))
            ni.write_output(1, cycle & 0xFFFF)
            if ni.send(TRAFFIC_MTYPE) is SendResult.SENT:
                self.accepted += 1
            else:
                self.refused_offers += 1

    def quiescent(self) -> bool:
        return True  # open-loop: the source never holds the run open

    def snapshot(self) -> Dict[str, object]:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "refused_offers": self.refused_offers,
        }


class TrafficSink(SimComponent):
    """Ideal consumers: every node drains its input queue every cycle.

    The synthetic sweep measures the *network*, so the endpoints must
    not be the bottleneck — each interface retires every waiting message
    each cycle, the NEXT-until-empty service loop of an infinitely fast
    processor.
    """

    name = "traffic-sink"

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.retired = 0

    def tick(self, cycle: int) -> None:
        retired = self.retired
        for ni in self.fabric.interfaces:
            while ni.msg_valid:
                ni.next()
                retired += 1
        self.retired = retired

    def quiescent(self) -> bool:
        return all(
            ni.input_queue.is_empty and not ni.msg_valid
            for ni in self.fabric.interfaces
        )

    def snapshot(self) -> Dict[str, object]:
        return {"retired": self.retired}


def censored_ages(fabric: Fabric, now: int) -> list:
    """Ages of every undelivered message still inside the machine at ``now``.

    Two places hold them: router buffers (the fabric stamped
    ``injected_at`` on entry) and interface output queues (not yet past
    the serialization timer — their injection cycle is the low 16 bits
    of word 1, stamped by :class:`TrafficSource`).  Each age is a *lower
    bound* on the message's eventual latency, which is exactly what a
    censored sample contributes.
    """
    ages = []
    for router in fabric.routers:
        for buffer in router.in_buffers.values():
            for item in buffer:
                ages.append(now - item.injected_at)
    for ni in fabric.interfaces:
        for message in ni.output_queue:
            stamped = message.word(1) & 0xFFFF
            ages.append(max(0, now - stamped))
    return ages


def run_traffic(
    topology: Topology,
    routing: RoutingPolicy,
    pattern: str,
    rate: float,
    seed: int = 0,
    warmup_cycles: int = 200,
    measure_cycles: int = 600,
    drain_cycles: int = 2_000,
) -> Dict[str, object]:
    """One synthetic-traffic run; returns a plain (picklable) payload.

    Injection runs for ``warmup_cycles + measure_cycles``; throughput
    and latency are measured over the post-warmup window only (deltas of
    the fabric counters), so ramp-up transients never pollute the
    curve.  After injection stops the fabric is given ``drain_cycles``
    to deliver what it holds.  A failure to drain is a *measurement*,
    not an error — a policy without deadlock avoidance is expected to
    deadlock past saturation — so the payload records ``drained`` and,
    when the detector finds one, the buffer-wait cycle under
    ``deadlock`` (the window's throughput and latency stay valid: they
    were measured before the drain began).

    The payload's headline numbers:

    * ``offered_rate`` — the Bernoulli knob, messages/node/cycle;
    * ``accepted_rate`` — SENDs the interfaces accepted, per node-cycle,
      over the measurement window (accepted < offered means the network
      is saturated and backpressure reached the processors);
    * ``throughput`` — deliveries per node-cycle over the window;
    * ``mean_latency`` — injection-to-ejection cycles, averaged over the
      window's deliveries;
    * ``censored`` / ``censored_mean_age`` / ``mean_latency_lower_bound``
      — messages still undelivered when the window closed, counted as
      right-censored latency samples (each contributes its age so far).
      Near saturation ``mean_latency`` alone silently drops exactly the
      slowest traffic; the lower bound folds the censored mass back in.
    """
    fabric = Fabric(
        topology,
        [
            NetworkInterface(node=node, input_capacity=8, output_capacity=8)
            for node in range(topology.n_nodes)
        ],
        serialization_cycles=1,
        routing=routing,
    )
    duration = warmup_cycles + measure_cycles
    source = TrafficSource(fabric, pattern, rate, seed, duration)
    sink = TrafficSink(fabric)
    kernel = SimKernel()
    source.handle = kernel.register(source)
    kernel.register(fabric)
    kernel.register(sink)

    kernel.run(cycles=warmup_cycles)
    at_warmup = (
        source.offered,
        source.accepted,
        fabric.stats.delivered,
        fabric.stats.total_latency,
        fabric.stats.total_hops,
    )
    kernel.run(cycles=measure_cycles)
    offered = source.offered - at_warmup[0]
    accepted = source.accepted - at_warmup[1]
    delivered = fabric.stats.delivered - at_warmup[2]
    latency = fabric.stats.total_latency - at_warmup[3]
    hops = fabric.stats.total_hops - at_warmup[4]
    # Messages still in flight when the window closes never reach the
    # latency average — near saturation that silently discards exactly
    # the slowest traffic and underreports latency.  Snapshot them here,
    # before the drain (which delivers or strands them), as right-censored
    # samples: each age is a lower bound on that message's latency.
    censored = censored_ages(fabric, kernel.cycle)
    censored_age_total = sum(censored)
    # Injection is over; let the fabric drain.  A stuck drain — e.g. an
    # adaptive policy deadlocking past saturation — is recorded in the
    # payload, cycle named, rather than raised: the sweep wants the
    # failure boundary on the curve, not a crashed grid.
    try:
        kernel.run(max_cycles=drain_cycles, label="drain")
        drained = True
        deadlock = None
    except SimStallError:
        drained = False
        found = fabric.find_deadlock()
        deadlock = " -> ".join(found) if found else None

    n = topology.n_nodes
    node_cycles = n * measure_cycles
    return {
        "topology": topology.describe(),
        "routing": routing.name,
        "pattern": pattern,
        "n_nodes": n,
        "seed": seed,
        "warmup_cycles": warmup_cycles,
        "measure_cycles": measure_cycles,
        "offered_rate": rate,
        "offered": offered,
        "accepted": accepted,
        "accepted_rate": round(accepted / node_cycles, 6),
        "delivered": delivered,
        "throughput": round(delivered / node_cycles, 6),
        "mean_latency": round(latency / delivered, 3) if delivered else 0.0,
        "censored": len(censored),
        "censored_mean_age": (
            round(censored_age_total / len(censored), 3) if censored else 0.0
        ),
        "mean_latency_lower_bound": (
            round(
                (latency + censored_age_total) / (delivered + len(censored)), 3
            )
            if delivered + len(censored)
            else 0.0
        ),
        "mean_hops": round(hops / delivered, 3) if delivered else 0.0,
        "total_delivered": fabric.stats.delivered,
        "total_retired": sink.retired,
        "drain_cycles": kernel.cycle - duration,
        "drained": drained,
        "deadlock": deadlock,
    }


def run_traffic_named(
    topology_kind: str,
    n_nodes: int,
    routing: RoutingPolicy,
    pattern: str,
    rate: float,
    **kwargs,
) -> Dict[str, object]:
    """:func:`run_traffic` with the topology built from ``(kind, nodes)``."""
    return run_traffic(
        build_topology(topology_kind, n_nodes), routing, pattern, rate, **kwargs
    )


def saturation_throughput(curve) -> float:
    """The saturation point of one latency-vs-load curve: the largest
    measured throughput across its injection rates."""
    return max((point["throughput"] for point in curve), default=0.0)
