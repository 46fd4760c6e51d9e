"""Pluggable routing policies: (node, destination, congestion) → ports.

The paper's architecture assumes only *some* network that delivers
five-word messages and exerts backpressure; which route a message takes
is a property of the machine the interface is dropped into, not of the
interface.  This module makes that separation explicit:

* :class:`~repro.network.topology.Topology` describes **structure** —
  nodes, links, neighbors, closed-form distance, minimal next hops;
* a :class:`RoutingPolicy` maps a message's position, its destination,
  and the router's *local congestion view* to an ordered tuple of
  candidate output ports, each a ``(next node, virtual channel)`` pair.

Every policy's answer splits in two.  The **static** part
(:meth:`RoutingPolicy.static_route`) is a pure function of (topology,
node, destination): the productive ports to rank, plus the fixed ports
offered after them.  The **dynamic** part (:meth:`RoutingPolicy.rank`)
orders the ranked ports by the cycle-start congestion view.  The fabric
keeps the static part in per-node route tables (garnet2.0-style
table-driven routing) and calls only :meth:`~RoutingPolicy.rank` per
message.  Static routes are closed-form arithmetic over the topology's
axes; the independent reference they are tested against is the base
:class:`~repro.network.topology.Topology`'s distance search.  No policy
names a topology class: what a route needs of the structure is its
minimal neighbors, its dimension-order leg and whether its axes wrap.

Three policies cover the classic design points (the gem5/Garnet sweep
the evaluation mirrors uses the same trio):

* :class:`DimensionOrder` — deterministic minimal routing, one
  candidate, one virtual channel: the hop of the topology's closed-form
  :meth:`~repro.network.topology.Topology.dimension_order_leg`.
* :class:`AdaptiveRandom` — minimal-adaptive: every productive neighbor
  is a candidate, preferred by downstream buffer space, ties broken by
  a seeded RNG so runs stay reproducible.  No escape path — this policy
  *can* deadlock, which is exactly what the deadlock detector's tests
  exploit.
* :class:`EscapeVC` — minimal-adaptive on virtual channel 1 with a
  dimension-order **escape** channel on virtual channel 0 (Duato's
  scheme): whenever the adaptive candidates are all blocked, the
  deadlock-free escape channel is still offered, so cyclic waits cannot
  close.

Policies are stateless except for their RNG, so one instance drives a
whole fabric; construct a fresh policy (same seed) to replay a run
bit-for-bit.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, TypeVar

from repro.errors import RoutingError
from repro.network.topology import Topology

#: One candidate output port: (next node, virtual channel).
Port = Tuple[int, int]

#: The static part of a route: (ports to rank, fixed ports offered after
#: them).  Ranked ports are in ascending node id.
StaticRoute = Tuple[Tuple[Port, ...], Tuple[Port, ...]]

#: Whatever a caller ranks: plain :data:`Port` pairs, or the fabric's
#: richer link records.
P = TypeVar("P")

#: Registry of policy names accepted by ``routing=`` knobs.
POLICY_NAMES = ("dimension-order", "adaptive-random", "escape-vc")


def make_policy(name: str, seed: int = 0) -> "RoutingPolicy":
    """Build a policy from its CLI/sweep name (see :data:`POLICY_NAMES`)."""
    if name == "dimension-order":
        return DimensionOrder()
    if name == "adaptive-random":
        return AdaptiveRandom(seed=seed)
    if name == "escape-vc":
        return EscapeVC(seed=seed)
    raise RoutingError(
        f"unknown routing policy {name!r}; known: {', '.join(POLICY_NAMES)}"
    )


class RoutingPolicy:
    """Maps (node, destination, congestion view) to candidate ports.

    ``num_vcs`` is the number of virtual channels the policy needs on
    every link; the fabric sizes its routers' buffers from it.  The
    candidate tuple is ordered by preference — the router's output
    arbitration walks it and takes the first port whose physical link is
    free this cycle and whose downstream buffer has credit, falling back
    to the first free-link candidate (charged as a blocked move) when
    none has credit.
    """

    name: str = "policy"
    num_vcs: int = 1

    def static_route(
        self, topology: Topology, node: int, destination: int
    ) -> StaticRoute:
        """The congestion-independent part of the route (see module doc)."""
        raise NotImplementedError

    def rank(self, ports: Sequence[P], free: List[int]) -> Sequence[P]:
        """Order ``ports`` (two or more, ascending node id) given each
        one's free downstream slots ``free``; the default keeps them."""
        return ports


class DimensionOrder(RoutingPolicy):
    """Deterministic dimension-order routing, by the hop of the topology's
    :meth:`~repro.network.topology.Topology.dimension_order_leg`: correct
    the lowest unresolved axis first.

    * Mesh: correct X to the destination column, then Y.
    * Torus: same, but each axis steps in its shortest wrap direction
      (ties break toward +1).
    * Hypercube: flip the lowest differing address bit.

    One candidate, virtual channel 0, ignoring congestion — a blocked
    link simply waits, which is what makes the policy deterministic and
    (on the mesh and hypercube) deadlock-free.
    """

    name = "dimension-order"
    num_vcs = 1

    def static_route(
        self, topology: Topology, node: int, destination: int
    ) -> StaticRoute:
        hop, _ = topology.dimension_order_leg(node, destination)
        return ((), ((hop, 0),))


class AdaptiveRandom(RoutingPolicy):
    """Minimal-adaptive routing with seeded-random tie-breaking.

    All productive neighbors are candidates.  They are offered most-free
    downstream buffer first; among equally-free links the seeded RNG
    picks the leader and the rest follow in ascending node id, so the
    whole run is a pure function of the seed.  With a single virtual
    channel and no escape path, cyclic channel waits are possible — see
    :class:`EscapeVC` for the deadlock-free variant and
    :meth:`repro.network.fabric.Fabric.find_deadlock` for the detector
    this policy's failure mode exercises.
    """

    name = "adaptive-random"
    num_vcs = 1

    #: Virtual channel the adaptive candidates use.
    adaptive_vc = 0

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def static_route(
        self, topology: Topology, node: int, destination: int
    ) -> StaticRoute:
        minimal = topology.minimal_neighbors(node, destination)
        if not minimal:
            raise RoutingError(
                f"no productive neighbor from {node} to {destination} in "
                f"{topology.describe()}"
            )
        vc = self.adaptive_vc
        return (tuple([(neighbor, vc) for neighbor in minimal]), ())

    def rank(self, ports: Sequence[P], free: List[int]) -> Sequence[P]:
        # The leader is drawn from the most-free ports; the rest follow
        # most-free first, ties in ascending node id (``ports`` arrives
        # in that order and the sort is stable).
        if len(ports) == 2:
            # The general path below, for the two ports of a 2-D mesh
            # route: the free counts order them, and only a tie draws,
            # from a pool of two exactly as the general path would.
            first, second = free
            if first == second:
                second_leads = self._rng.choice((False, True))
            else:
                second_leads = second > first
            return (ports[1], ports[0]) if second_leads else ports
        best = max(free)
        pool = [i for i, slots in enumerate(free) if slots == best]
        leader = pool[0] if len(pool) == 1 else self._rng.choice(pool)
        rest = sorted(
            (i for i in range(len(ports)) if i != leader),
            key=free.__getitem__,
            reverse=True,
        )
        return (ports[leader],) + tuple(ports[i] for i in rest)


class EscapeVC(AdaptiveRandom):
    """Minimal-adaptive with a dimension-order escape virtual channel.

    Virtual channel 1 carries the adaptive candidates (exactly
    :class:`AdaptiveRandom`'s, same RNG discipline); virtual channel 0
    is the **escape** channel, always offered last, routed strictly
    dimension-order.  Because the escape channel's dependency graph is
    the deadlock-free dimension-order one (acyclic on the mesh and
    hypercube) and every blocked message is eventually offered it, a
    cycle of waits cannot involve only full buffers — Duato's condition.

    On a topology whose axes wrap (the torus) the wraparound links make
    dimension-order cyclic within each ring, so the escape path
    additionally applies Dally's **dateline** discipline: the wraparound
    link of each directed ring is its dateline, a leg that still has the
    dateline ahead of it rides escape channel 0, and a leg past the
    dateline (or one that never crosses it) rides the dateline channel
    (virtual channel 2).  The dateline link itself is only ever
    requested on channel 0 and every transition is 0 → 2, never back, so
    the escape dependency graph is acyclic on the torus too — the policy
    is deadlock-free on all three topologies.

    A message may hop between adaptive and escape channels freely: the
    candidates are recomputed at every router from the message's current
    position, never from which channel it arrived on.
    """

    name = "escape-vc"
    num_vcs = 3
    adaptive_vc = 1

    #: The escape channel: dimension-order, virtual channel 0.
    escape_vc = 0

    #: The post-dateline escape channel on torus wraparound rings.
    dateline_vc = 2

    def _escape_port(
        self, topology: Topology, node: int, destination: int
    ) -> Port:
        """The dimension-order escape candidate with its dateline channel."""
        hop, crosses = topology.dimension_order_leg(node, destination)
        past = topology.wrap and not crosses
        return (hop, self.dateline_vc if past else self.escape_vc)

    def static_route(
        self, topology: Topology, node: int, destination: int
    ) -> StaticRoute:
        adaptive, _ = super().static_route(topology, node, destination)
        return (adaptive, (self._escape_port(topology, node, destination),))
