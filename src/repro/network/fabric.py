"""The whole-machine fabric: interfaces wired through routers.

The fabric advances in cycles.  Each cycle, every router moves at most one
message per output (physical link or ejection port), always subject to the
next buffer's credit; every interface's output queue feeds its router's
injection buffer, and ejected messages are delivered through
:meth:`NetworkInterface.deliver` — which refuses when the input queue is
full, pushing the backpressure chain the paper describes in Section 2.1.1:

    "its input message queue backs up into the network.  As the network
    becomes clogged, processors can no longer transmit messages and
    eventually their output queues fill up."

*Which* link a message takes is the routing policy's decision
(:mod:`repro.network.routing`), made table-driven: the static part of
each route — a pure function of (node, destination) — is looked up in
per-node tables, filled when the fabric is built from one route per
destination class (:meth:`Topology.destination_classes`), and only
adaptive policies rank their productive ports per message against the
router's cycle-start congestion view.  A policy that cannot route the
topology fails when the fabric is built.  The output arbitration walks
the resulting ``(next node, virtual channel)`` candidates and takes the
first whose physical link is still free this cycle and whose downstream
buffer has credit.  A head with credit nowhere yields the physical link
to any other head that can actually move over it this cycle (virtual
channels must multiplex the link, or a blocked channel would starve an
open one — the escape-channel guarantee depends on this) and is charged
one blocked move on its preferred link only when no mover claimed it.
The default :class:`DimensionOrder` policy emits exactly one candidate,
which reduces the arbitration to the pre-policy behaviour byte for
byte.

Service decisions *and credits* are snapshotted at the start of the
cycle: a buffer slot freed by a move earlier in the same cycle is not
reusable until the next cycle, so drain order never depends on the
iteration order of the routers (single-cycle credit invariant).

A router whose arbitration moved nothing and attempted no ejection
**holds**: it keeps the blocked moves it charged, its occupancy, the
downstream buffer of every candidate of every head and, for each head
with two or more ranked ports, those ports.  On its next turn, if its
occupancy is unchanged and every kept buffer is still full, the fabric
charges the kept moves again without arbitrating; a ranked head draws
again through ``rank`` with every free count zero and takes the first
port, so the RNG stream, the blocked moves and every observer event are
those of a full arbitration.  With no observer attached a replayed
charge is only the router's blocked-move count; with one, the records
join the cycle's moves so their events land in order.  Otherwise the
hold is dropped and the router arbitrates in full.  The replay is exact
because:

* only :meth:`Fabric.place`, :meth:`Router.inject` and link moves put a
  message into a router, and only the owning router pops its buffers,
  by moving, so an unchanged occupancy means its heads are unchanged;
* every candidate of a held router was full (one with credit would have
  moved), so every free count is zero and each head falls back on its
  first candidate; a buffer this router feeds fills only through it or
  through ``place``;
* credits are snapshotted at cycle start, so the check at the router's
  turn sees what a full arbitration would see;
* a router with an ejection-bound head never holds: its outcome depends
  on ``can_accept`` and ``would_divert``, which change outside the
  fabric.

Latency model: one hop per cycle per message, plus a configurable
per-message serialization latency at injection (defaulting to the six
flit times of the RTL model).  The serialization timer is keyed to the
specific head-of-queue message it was started for; a new head (after a
drain, clear, or requeue) always serialises from scratch.  The
evaluation's instruction counts never depend on fabric latency (the
paper's simulator "did not model ... any network latency"), but the
examples and the flow-control tests exercise it.

Observability is opt-in: the fabric and each interface hold one
``observer`` slot (:mod:`repro.obs.observer`), and with it ``None`` the
cycle loop pays one identity check per event site.  :meth:`Fabric.attach`
is the one way to fill it.

The fabric is itself a kernel component (:mod:`repro.sim`), and every
driver registers it as it is: one tick is one :meth:`Fabric.step`.  A
step with nothing pending moves, injects and draws nothing and raises
only ``on_step``: a cycle in which only a driver's endpoints work shows
in ``stats.cycles`` and nowhere else.

Deadlock is a first-class diagnostic: :meth:`Fabric.find_deadlock`
searches the buffer wait-for graph for a cycle of full buffers whose
head messages all wait on each other, and the fabric's kernel
``snapshot`` names that cycle — so a stalled
:meth:`run_until_quiescent` reports *which* buffers deadlocked, not just
that the run timed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import NetworkError, RoutingError
from repro.network.router import INJECTION_DEPTH, InTransit, Router
from repro.network.routing import DimensionOrder, RoutingPolicy, StaticRoute
from repro.network.topology import Topology
from repro.nic.interface import NetworkInterface
from repro.nic.messages import FLITS_PER_MESSAGE, Message
from repro.obs.observer import Observer, observer_of
from repro.sim.kernel import SimKernel


@dataclass
class FabricStats:
    """Whole-fabric counters; each counts exactly one thing.

    * ``cycles`` — steps taken.
    * ``delivered`` — messages ejected into an interface and accepted
      (queued or diverted); equals the sum of router ``ejected`` counts.
    * ``total_hops`` / ``total_latency`` — accumulated over delivered
      messages only.
    * ``deliveries_refused`` — ejection *attempts* refused because the
      destination input queue was full at the start of the cycle: one
      per refused head message per cycle, matching the sum of
      :attr:`InterfaceStats.refused` exactly (a message refused for
      five cycles counts five attempts in both places).
    * ``peak_in_flight`` — the most messages inside routers at the end
      of any step.
    * ``held`` — router-cycles whose arbitration was a held router's
      replay rather than a full one (no payload reports it).
    """

    cycles: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_latency: int = 0
    deliveries_refused: int = 0
    peak_in_flight: int = 0
    held: int = 0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0


class LinkPort(NamedTuple):
    """One output port of one router, resolved once at build time."""

    next_node: int
    vc: int
    #: The downstream (next_node, node, vc) buffer this port feeds.
    buffer: Deque[InTransit]
    router: Router


#: A route-table entry: (ports the policy ranks, fixed ports after them).
Route = Tuple[Tuple[LinkPort, ...], Tuple[LinkPort, ...]]

#: One arbitrated move: (router, source buffer, port or ``None`` for the
#: ejection port, credit).
Move = Tuple[Router, Deque[InTransit], Optional[LinkPort], bool]

class Fabric:
    """Routers plus interfaces over a :class:`~repro.network.topology.Topology`."""

    def __init__(
        self,
        topology: Topology,
        interfaces: Optional[Sequence[NetworkInterface]] = None,
        link_buffer_depth: int = 4,
        serialization_cycles: int = FLITS_PER_MESSAGE,
        routing: Optional[RoutingPolicy] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing if routing is not None else DimensionOrder()
        if interfaces is None:
            interfaces = [NetworkInterface(node=n) for n in range(topology.n_nodes)]
        if len(interfaces) != topology.n_nodes:
            raise NetworkError(
                f"{len(interfaces)} interfaces for {topology.n_nodes} nodes"
            )
        self.interfaces: List[NetworkInterface] = list(interfaces)
        self.routers = [
            Router(
                node,
                topology.neighbors(node),
                link_buffer_depth,
                num_vcs=self.routing.num_vcs,
            )
            for node in range(topology.n_nodes)
        ]
        self.link_buffer_depth = link_buffer_depth
        # Route tables.  Every (node, neighbor, vc) output resolves to its
        # downstream buffer once, here; a node's table is a flat list
        # indexed by destination, so the whole table costs one pointer
        # per (node, destination) pair.
        self._ports: List[Dict[Tuple[int, int], LinkPort]] = [
            {
                (neighbor, vc): LinkPort(
                    neighbor,
                    vc,
                    self.routers[neighbor].in_buffers[(router.node, vc)],
                    self.routers[neighbor],
                )
                for neighbor in router.neighbors
                for vc in range(router.num_vcs)
            }
            for router in self.routers
        ]
        self._tables: List[List[Optional[Route]]] = [
            self._route_row(node) for node in range(topology.n_nodes)
        ]
        self.serialization_cycles = max(1, serialization_cycles)
        # Per-node serialization state: the head message the countdown was
        # started for, plus the cycles it still occupies the channel.
        self._injection_timers: Dict[int, Tuple[Message, int]] = {}
        # What the injection scan reads per node, resolved once: the
        # output queue's deque (its head is the next message out) and the
        # router's injection buffer, both tested without a call.
        self._endpoints = [
            (node, interface, interface.output_queue._items, router, router.injection)
            for node, (interface, router) in enumerate(zip(self.interfaces, self.routers))
        ]
        self._output_queues = [endpoint[2] for endpoint in self._endpoints]
        # Messages inside routers: counted where they enter (injection,
        # place) and where they leave (ejection).
        self._in_flight = 0
        self.stats = FabricStats()
        self.observer: Optional[Observer] = None

    def attach(self, observer: Observer) -> None:
        """Subscribe ``observer`` to the whole message path, beside any
        earlier one: the fabric raises the router events and the end of
        every cycle, each interface its own on the fabric's cycle clock.
        """
        self.observer = observer_of(self.observer, observer)
        clock = lambda: self.stats.cycles  # noqa: E731 - shared cycle clock
        for interface in self.interfaces:
            interface.attach(observer, clock)

    def interface(self, node: int) -> NetworkInterface:
        return self.interfaces[self.topology.check_node(node)]

    def place(
        self,
        node: int,
        item: InTransit,
        *,
        neighbor: Optional[int] = None,
        vc: int = 0,
    ) -> None:
        """Put ``item`` into ``node``'s router by hand: into its link
        buffer from ``neighbor`` on channel ``vc``, through the port a
        move from that neighbor uses, or without a neighbor into its
        injection buffer.

        Counted as the fabric counts its own entries: a link placement
        is one hop (the neighbor's ``forwarded`` is left alone), an
        injection one ``injected``.  A full buffer or a missing link
        raises :class:`NetworkError`.
        """
        if neighbor is None:
            self.routers[self.topology.check_node(node)].inject(item)
            self._in_flight += 1
            return
        port = (
            self._ports[neighbor].get((node, vc))
            if 0 <= neighbor < len(self._ports)
            else None
        )
        if port is None:
            raise NetworkError(f"router {node} has no link from {neighbor} vc{vc}")
        if len(port.buffer) >= self.link_buffer_depth:
            raise NetworkError(
                f"router {node}: link buffer from {neighbor} vc{vc} is full"
            )
        item.hops += 1
        port.buffer.append(item)
        port.router.occupancy += 1
        self._in_flight += 1

    # ------------------------------------------------------------------
    # Cycle advance.
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Advance one cycle; returns the number of deliveries made."""
        stats = self.stats
        stats.cycles += 1
        delivered, link_moves = self._move_messages()
        self._inject_from_interfaces()
        if self._in_flight > stats.peak_in_flight:
            stats.peak_in_flight = self._in_flight
        if self.observer is not None:
            self.observer.on_step(stats.cycles, self, delivered, link_moves)
        return delivered

    def route(self, node: int, destination: int) -> Route:
        """The static route from ``node`` to ``destination`` (not itself)."""
        return self._tables[node][destination]

    def _route_row(self, node: int) -> List[Optional[Route]]:
        """``node``'s route table: the policy routes one representative
        of each destination class, every destination of the class shares
        its entry, and entries are interned by static route.  ``node``
        itself, whose heads eject, has no entry."""
        topology = self.topology
        classes, representatives = topology.destination_classes(node)
        ports = self._ports[node]
        interned: Dict[StaticRoute, Route] = {}
        entries: List[Optional[Route]] = []
        for index, destination in enumerate(representatives):
            if destination == node:
                entries.append(None)
                continue
            try:
                static = self.routing.static_route(topology, node, destination)
            except RoutingError as error:
                raise RoutingError(
                    f"{self.routing.name} cannot route node {node}'s destination "
                    f"class {index} (destination {destination} of "
                    f"{topology.describe()}): {error}"
                ) from error
            entry = interned.get(static)
            if entry is None:
                ranked, fixed = static
                entry = interned[static] = (
                    tuple([ports[port] for port in ranked]),
                    tuple([ports[port] for port in fixed]),
                )
            entries.append(entry)
        return list(map(entries.__getitem__, classes))

    def _move_messages(self) -> Tuple[int, int]:
        # Snapshot service decisions AND credits before moving anything,
        # so a message cannot traverse two links in one cycle and a
        # buffer slot freed by an earlier move this cycle cannot be
        # consumed by a later one (drain order must not depend on router
        # iteration order).  Adaptive ranking reads the same cycle-start
        # congestion view, straight from the ports' downstream buffers.
        # Each move record carries its credit: a downstream buffer is fed
        # by exactly one link, which carries at most one move per cycle.
        # The loops read LinkPort fields by index (``port[0]`` next node,
        # ``port[2]`` downstream buffer), cheaper than by name.
        interfaces = self.interfaces
        tables = self._tables
        rank = self.routing.rank
        depth = self.link_buffer_depth
        observer = self.observer
        held = 0
        moves: List[Move] = []
        for router in self.routers:
            if not router.occupancy:
                continue
            hold = router.hold
            if hold is not None:
                occupancy, watched, records, heads = hold
                if occupancy == router.occupancy:
                    for buffer in watched:
                        if len(buffer) < depth:
                            break
                    else:
                        # Nothing entered and every candidate is still
                        # full: a full arbitration would charge the same.
                        held += 1
                        if heads is not None:
                            # Ranked heads draw again, every free count
                            # zero, and take the first port drawn.
                            claimed = set()
                            records = []
                            for buffer, ranked, port in heads:
                                if ranked is not None:
                                    port = rank(ranked, [0] * len(ranked))[0]
                                if port[0] not in claimed:
                                    claimed.add(port[0])
                                    records.append((router, buffer, port, False))
                        if observer is None:
                            # Unobserved, a blocked move is only its count.
                            router.stats.blocked_moves += len(records)
                        else:
                            moves += records
                        continue
                router.hold = None
            node = router.node
            table = tables[node]
            # Claimed outputs this cycle, by next node; ``node`` itself
            # stands for the ejection port.
            claimed = set()
            # Heads with no downstream credit anywhere must not claim the
            # physical link during the scan: a virtual channel exists
            # precisely so a blocked head cannot hold the link hostage
            # (without this, a full escape channel could starve the open
            # dateline channel behind it forever).  They are deferred and
            # charge a blocked move only on links no mover claimed.
            deferred = None
            for buffer in router.service_order:
                if not buffer:
                    continue
                destination = buffer[0].destination
                if destination == node:
                    if node not in claimed:
                        claimed.add(node)
                        moves.append(
                            (router, buffer, None, interfaces[node].can_accept())
                        )
                    continue
                ranked, candidates = table[destination]
                if ranked:
                    if len(ranked) > 1:
                        ranked = rank(
                            ranked, [depth - len(port[2]) for port in ranked]
                        )
                    candidates = tuple(ranked) + candidates
                # The first candidate with a free link and credit moves;
                # failing that, the first free-link one is deferred.
                fallback = None
                for port in candidates:
                    if port[0] in claimed:
                        continue
                    if len(port[2]) < depth:
                        claimed.add(port[0])
                        moves.append((router, buffer, port, True))
                        break
                    if fallback is None:
                        fallback = port
                else:
                    if fallback is not None:
                        if deferred is None:
                            deferred = []
                        deferred.append((buffer, fallback))
            if deferred is not None:
                # Nothing claimed yet: no head moved and none is bound for
                # this node, so every candidate was tested and is full.
                holds = not claimed
                first = len(moves)
                for buffer, port in deferred:
                    if port[0] not in claimed:
                        claimed.add(port[0])
                        moves.append((router, buffer, port, False))
                if holds:
                    router.hold = self._hold(router, deferred, moves[first:])
        self.stats.held += held
        return self._apply_moves(moves)

    def _hold(
        self,
        router: Router,
        deferred: List[Tuple[Deque[InTransit], LinkPort]],
        records: List[Move],
    ) -> tuple:
        """What ``router`` keeps after charging ``records`` for its
        ``deferred`` heads and moving nothing (see the module doc): its
        occupancy, every candidate's downstream buffer, ``records``, and
        per head ``(buffer, ranked ports or None, first port)``, or
        ``None`` in place of that list when no head has two or more
        ranked ports."""
        table = self._tables[router.node]
        candidates = []
        heads = []
        ranks = False
        for buffer, port in deferred:
            ranked, fixed = table[buffer[0].destination]
            candidates += ranked
            candidates += fixed
            if len(ranked) > 1:
                ranks = True
                heads.append((buffer, ranked, port))
            else:
                heads.append((buffer, None, port))
        return (
            router.occupancy,
            tuple([port[2] for port in candidates]),
            records,
            heads if ranks else None,
        )

    def _apply_moves(self, moves: List[Move]) -> Tuple[int, int]:
        """Carry out one cycle's arbitrated moves, in order."""
        delivered = 0
        link_moves = 0
        stats = self.stats
        cycle = stats.cycles
        observer = self.observer
        for router, buffer, port, credit in moves:
            if port is None:
                item = buffer[0]
                interface = self.interfaces[router.node]
                message = item.message
                # Diverted messages (privileged / PIN mismatch) never
                # consume an input-queue slot, so they bypass the credit
                # snapshot exactly as they bypass the queue itself.
                if credit or interface.would_divert(message):
                    accepted = interface.deliver(message)
                else:
                    accepted = interface.refuse_delivery(message)
                if accepted:
                    buffer.popleft()
                    router.occupancy -= 1
                    router.stats.ejected += 1
                    delivered += 1
                    stats.delivered += 1
                    stats.total_hops += item.hops
                    stats.total_latency += cycle - item.injected_at
                    if observer is not None:
                        latency = cycle - item.injected_at
                        observer.on_eject(cycle, router.node, message, item.hops, latency)
                else:
                    stats.deliveries_refused += 1
                    router.stats.blocked_moves += 1
                    if observer is not None:
                        observer.on_block(cycle, router.node, message, None)
            elif credit:
                item = buffer.popleft()
                router.occupancy -= 1
                router.stats.forwarded += 1
                link_moves += 1
                item.hops += 1
                _, vc, downstream, target = port
                downstream.append(item)
                target.occupancy += 1
                if observer is not None:
                    observer.on_hop(
                        cycle, target.node, item.message, router.node, vc, item.hops
                    )
            else:
                router.stats.blocked_moves += 1
                if observer is not None:
                    observer.on_block(
                        cycle, router.node, buffer[0].message, port.next_node
                    )
        self._in_flight -= delivered
        return delivered, link_moves

    def _inject_from_interfaces(self) -> None:
        observer = self.observer
        n_nodes = self.topology.n_nodes
        timers = self._injection_timers
        cycle = self.stats.cycles
        for node, interface, outgoing, router, injection in self._endpoints:
            if not outgoing:
                if node in timers:
                    del timers[node]
                continue
            if len(injection) >= INJECTION_DEPTH:
                continue
            head = outgoing[0]
            # Model flit-serial injection: a message occupies the channel
            # for serialization_cycles before entering the router.  The
            # countdown belongs to the specific message it was started
            # for: a different head (after a drain/clear between steps)
            # must serialise from the beginning, never inherit the
            # previous head's mostly-elapsed timer.
            entry = timers.get(node)
            if entry is None or entry[0] is not head:
                remaining = self.serialization_cycles
                if observer is not None:
                    observer.on_serialize_start(cycle, node, head)
            else:
                remaining = entry[1]
            remaining -= 1
            if remaining > 0:
                timers[node] = (head, remaining)
                continue
            timers.pop(node, None)
            # The route tables cover only the topology's nodes: a head
            # addressed past them stays in its output queue, unsent.
            item = InTransit(head, injected_at=cycle)
            if item.destination >= n_nodes:
                raise RoutingError(
                    f"node {node} sent to node {item.destination}, outside "
                    f"{self.topology.describe()} of {n_nodes} nodes"
                )
            message = interface.transmit()
            assert message is head
            router.inject(item)
            self._in_flight += 1
            if observer is not None:
                observer.on_inject(cycle, node, message)

    # ------------------------------------------------------------------
    # Convenience drivers.
    # ------------------------------------------------------------------

    def in_flight(self) -> int:
        """Messages currently inside routers (not counting endpoint queues)."""
        return self._in_flight

    def pending(self) -> int:
        """All undelivered traffic: router occupancy plus output queues."""
        return self._in_flight + sum(map(len, self._output_queues))

    # ------------------------------------------------------------------
    # Deadlock detection.
    # ------------------------------------------------------------------

    def find_deadlock(self) -> Optional[List[str]]:
        """A cycle of full buffers whose heads all wait on each other.

        Builds the buffer wait-for graph over the **full** link buffers
        whose head has every candidate downstream buffer full (a head
        with a non-full candidate can still move): each has an edge to
        each of its candidates that is itself in the graph.  Every buffer
        on a cycle is full and waits on the next, so none moves now.  But
        the graph drops the edges to full buffers outside it (a head
        bound for its own node, or one with a non-full candidate), so a
        head with two or more candidates may still leave through a
        dropped one once that buffer drains: a cycle shows a wait, not
        that it lasts forever.  A buffer in the maximal closed set (drop
        every full buffer with a candidate outside the set until none
        has one) can never move; the deadlocked sweep points' cycles lie
        in it (``tests/network/test_arbitration_golden.py``).  Returns
        the cycle as human-readable buffer descriptions (closing entry
        repeated), or ``None`` when no such cycle exists — e.g. mere
        congestion, or an endpoint refusing deliveries, which
        backpressure resolves once the endpoint drains.

        Candidates come from the static route tables in their static
        order, never from the policy's dynamic ranking: detection draws
        nothing from the routing RNG, so calling it (the kernel's stall
        snapshot does) never changes the run it inspects.
        """
        # Wait-for edges between full link buffers, keyed (node, neighbor, vc).
        edges: Dict[Tuple[int, int, int], List[Tuple[int, int, int]]] = {}
        heads: Dict[Tuple[int, int, int], int] = {}
        for router in self.routers:
            node = router.node
            for key, buffer in router.in_buffers.items():
                if len(buffer) < router.link_buffer_depth:
                    continue
                destination = buffer[0].destination
                if destination == node:
                    continue  # waiting on the endpoint, not on a buffer
                node_key = (node,) + key
                heads[node_key] = destination
                ranked, fixed = self.route(node, destination)
                waits = []
                for port in ranked + fixed:
                    if len(port.buffer) < port.router.link_buffer_depth:
                        break
                    waits.append((port.next_node, node, port.vc))
                else:
                    edges[node_key] = waits
        # Cycle search over the wait-for graph (iterative DFS, colours).
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {key: WHITE for key in edges}
        for start in edges:
            if colour[start] != WHITE:
                continue
            stack: List[Tuple[Tuple[int, int, int], int]] = [(start, 0)]
            path = [start]
            colour[start] = GREY
            while stack:
                node_key, branch = stack[-1]
                successors = [w for w in edges.get(node_key, ()) if w in edges]
                if branch < len(successors):
                    stack[-1] = (node_key, branch + 1)
                    succ = successors[branch]
                    if colour.get(succ) == GREY:
                        cycle = path[path.index(succ):] + [succ]
                        return [
                            f"router {n} buffer from {nb} vc{vc} "
                            f"(head -> {heads[(n, nb, vc)]})"
                            for n, nb, vc in cycle
                        ]
                    if colour.get(succ) == WHITE:
                        colour[succ] = GREY
                        stack.append((succ, 0))
                        path.append(succ)
                else:
                    colour[node_key] = BLACK
                    stack.pop()
                    path.pop()
        return None

    # The fabric is itself a kernel component (repro.sim): one tick is
    # one step, quiescence is "no undelivered traffic", and the stall
    # snapshot shows where messages are stuck — naming the deadlocked
    # buffer cycle when one exists.

    name = "fabric"

    def tick(self, cycle: int) -> None:
        self.step()

    def quiescent(self) -> bool:
        return self.pending() == 0

    def snapshot(self) -> Dict[str, object]:
        """Diagnostic state for the kernel's stall report."""
        state: Dict[str, object] = {
            "in_flight": self.in_flight(),
            "output_queues": {
                ni.node: ni.output_queue.depth
                for ni in self.interfaces
                if ni.output_queue.depth
            },
            "input_queues": {
                ni.node: ni.input_queue.depth
                for ni in self.interfaces
                if ni.input_queue.depth
            },
            "cycles": self.stats.cycles,
        }
        deadlock = self.find_deadlock()
        if deadlock is not None:
            state["deadlock"] = " -> ".join(deadlock)
        return state

    def run_until_quiescent(self, max_cycles: int = 100_000) -> int:
        """Step until no traffic remains in routers or output queues.

        Input queues may remain non-empty (that is endpoint work); raises
        :class:`~repro.errors.SimStallError` with the kernel's diagnostic
        snapshot if the fabric cannot drain — e.g. receivers never
        accept, or the routing policy deadlocked (the snapshot then names
        the buffer-wait cycle) — within ``max_cycles``.
        """
        kernel = SimKernel()
        kernel.register(self)
        return kernel.run(max_cycles=max_cycles, label="fabric")
