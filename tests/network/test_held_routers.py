"""Held routers against per-cycle arbitration.

A router that moved nothing and attempted no ejection holds: until its
occupancy changes or one of its candidates' downstream buffers has
credit, the fabric charges its last blocked moves again instead of
arbitrating (``Fabric._move_messages``).  This file keeps the per-cycle
arbitration the holds replaced as the oracle, a ``Fabric`` whose
``_move_messages`` arbitrates every occupied router every cycle, and
runs the two side by side.  After every step the routers' stats,
occupancy and buffer contents, the fabric's stats (``held`` aside),
every interface's stats and queues, the routing RNG's state and a
recording observer's event stream must be equal.

Generated runs draw the topology, routing policy, link depth,
serialization time, SENDs, hand placements and endpoints that stop
draining for stretches; named cases show each way a hold ends, that an
ejection head keeps a router from holding, and that redrawn rankings
keep the RNG in step through 500 held cycles.  ``-m slow`` runs a larger
budget.
"""

import dataclasses
from typing import Deque, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.fabric import Fabric, LinkPort
from repro.network.router import INJECTION_DEPTH, InTransit, Router
from repro.network.routing import AdaptiveRandom, DimensionOrder, EscapeVC
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.network.traffic import TrafficSink, TrafficSource
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message, pack_destination
from repro.obs.observer import EVENTS, Observer

# ----------------------------------------------------------------------
# The per-cycle arbitration, kept as the oracle.
# ----------------------------------------------------------------------


class PerCycleFabric(Fabric):
    """The fabric before holds: every occupied router arbitrates every cycle."""

    def _move_messages(self) -> Tuple[int, int]:
        interfaces = self.interfaces
        tables = self._tables
        rank = self.routing.rank
        depth = self.link_buffer_depth
        moves: List[Tuple[Router, Deque[InTransit], Optional[LinkPort], bool]] = []
        for router in self.routers:
            if not router.occupancy:
                continue
            node = router.node
            table = tables[node]
            claimed = set()
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
                for buffer, port in deferred:
                    if port[0] not in claimed:
                        claimed.add(port[0])
                        moves.append((router, buffer, port, False))
        return self._apply_moves(moves)


# ----------------------------------------------------------------------
# Two fabrics in step.
# ----------------------------------------------------------------------


class Recorder(Observer):
    """Every event, with the fabric argument dropped."""

    def __init__(self) -> None:
        self.events = []


def _recording(name):
    def record(self, *args):
        self.events.append(
            (name,) + tuple(None if isinstance(arg, Fabric) else arg for arg in args)
        )

    return record


for _name in EVENTS:
    setattr(Recorder, _name, _recording(_name))


POLICIES = (
    lambda seed: DimensionOrder(),
    lambda seed: AdaptiveRandom(seed=seed),
    lambda seed: EscapeVC(seed=seed),
    lambda seed: EscapeVC(seed=seed, dateline=False),
)


def message(destination: int, tag: int) -> Message:
    """A message told apart from every other by its tag."""
    return Message(2, (pack_destination(destination), tag, 0, 0, 0))


class Pair:
    """The fabric under test and the oracle, built and driven alike."""

    def __init__(
        self,
        topology,
        policy: int = 0,
        seed: int = 0,
        depth: int = 1,
        serialization: int = 1,
        input_capacity: int = 2,
        observed: bool = True,
    ) -> None:
        self.sides = [
            cls(
                topology,
                [
                    NetworkInterface(node=node, input_capacity=input_capacity)
                    for node in range(topology.n_nodes)
                ],
                link_buffer_depth=depth,
                serialization_cycles=serialization,
                routing=POLICIES[policy](seed),
            )
            for cls in (Fabric, PerCycleFabric)
        ]
        self.recorders = [Recorder(), Recorder()] if observed else []
        for fabric, recorder in zip(self.sides, self.recorders):
            fabric.attach(recorder)
        self.fabric, self.oracle = self.sides

    def send(self, node: int, destination: int, tag: int) -> None:
        for fabric in self.sides:
            interface = fabric.interfaces[node]
            interface.write_output(0, pack_destination(destination))
            interface.write_output(1, tag)
            interface.send(2)

    def place(self, node, destination, tag, neighbor=None, vc=0) -> None:
        for fabric in self.sides:
            fabric.place(
                node,
                InTransit(message(destination, tag), injected_at=0),
                neighbor=neighbor,
                vc=vc,
            )

    def fill(self, node: int, tag: int) -> None:
        """Fill ``node``'s input registers and queue so it refuses."""
        for fabric in self.sides:
            interface = fabric.interfaces[node]
            while interface.can_accept():
                assert interface.deliver(message(node, tag))

    def next(self, node: int) -> None:
        for fabric in self.sides:
            fabric.interfaces[node].next()

    def step(self, check: bool = True) -> int:
        """One cycle on both sides; returns the routers that held."""
        before = self.fabric.stats.held
        for fabric in self.sides:
            fabric.step()
        if check:
            self.check()
        return self.fabric.stats.held - before

    def check(self) -> None:
        fabric, oracle = self.sides
        assert oracle.stats.held == 0
        assert dataclasses.replace(fabric.stats, held=0) == oracle.stats
        assert fabric.in_flight() == oracle.in_flight()
        for router, expected in zip(fabric.routers, oracle.routers):
            assert router.stats == expected.stats
            assert router.occupancy == expected.occupancy
            assert contents(router) == contents(expected)
        for interface, expected in zip(fabric.interfaces, oracle.interfaces):
            assert interface.stats == expected.stats
            assert list(interface.input_queue) == list(expected.input_queue)
            assert list(interface.output_queue) == list(expected.output_queue)
        assert rng_state(fabric) == rng_state(oracle)
        for side in self.sides:
            assert side.pending() == side.in_flight() + sum(
                interface.output_queue.depth for interface in side.interfaces
            )
        if self.recorders:
            assert self.recorders[0].events == self.recorders[1].events


def contents(router: Router):
    return [
        [(item.message, item.hops, item.injected_at) for item in buffer]
        for buffer in router.service_order
    ]


def rng_state(fabric: Fabric):
    rng = getattr(fabric.routing, "_rng", None)
    return None if rng is None else rng.getstate()


# ----------------------------------------------------------------------
# Generated runs.
# ----------------------------------------------------------------------

TOPOLOGIES = (
    Mesh2D(2, 2),
    Mesh2D(3, 2),
    Mesh2D(4, 2),
    Mesh2D(3, 3),
    Mesh2D(4, 4),
    Torus2D(2, 2),
    Torus2D(3, 2),
    Torus2D(3, 3),
    Torus2D(4, 4),
    Hypercube(2),
    Hypercube(3),
    Hypercube(4),
)

MAX_NODES = 16

#: One scenario operation, its node and destination reduced modulo the
#: topology's size when it runs.  Placements and SENDs outweigh the
#: rest, so buffers fill and routers hold.
SEND = st.tuples(
    st.just("send"), st.integers(0, MAX_NODES - 1), st.integers(0, MAX_NODES - 1)
)
PLACE = st.tuples(
    st.just("place"),
    st.integers(0, MAX_NODES - 1),
    st.integers(0, MAX_NODES - 1),
    st.one_of(st.none(), st.integers(0, 3)),  # neighbor index; None: injection
    st.integers(0, 2),  # virtual channel
)
OPERATIONS = st.one_of(
    SEND,
    PLACE,
    PLACE,
    # Every node sends, all to one node or each ``shift`` nodes on.
    st.tuples(st.just("hot"), st.integers(0, MAX_NODES - 1)),
    st.tuples(st.just("shift"), st.integers(1, MAX_NODES - 1)),
    st.tuples(st.just("drain"), st.integers(0, MAX_NODES - 1), st.booleans()),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("step"), st.integers(1, 6)),
)


@st.composite
def scenarios(draw):
    return dict(
        topology=draw(st.sampled_from(TOPOLOGIES)),
        policy=draw(st.integers(0, len(POLICIES) - 1)),
        seed=draw(st.integers(0, 2**16)),
        depth=draw(st.integers(1, 3)),
        serialization=draw(st.integers(1, 3)),
        input_capacity=draw(st.integers(1, 3)),
        observed=draw(st.booleans()),
        draining=draw(st.lists(st.booleans(), min_size=MAX_NODES, max_size=MAX_NODES)),
        operations=draw(st.lists(OPERATIONS, min_size=20, max_size=120)),
    )


def run_scenario(scenario) -> None:
    scenario = dict(scenario)
    operations = scenario.pop("operations")
    draining = scenario.pop("draining")
    pair = Pair(**scenario)
    n = scenario["topology"].n_nodes
    for tag, (op, *args) in enumerate(operations):
        if op == "send":
            source, destination = args
            pair.send(source % n, destination % n, tag)
        elif op == "hot":
            for node in range(n):
                pair.send(node, args[0] % n, tag * MAX_NODES + node)
        elif op == "shift":
            for node in range(n):
                pair.send(node, (node + args[0]) % n, tag * MAX_NODES + node)
        elif op == "place":
            node, destination, choice, vc = args
            node %= n
            router = pair.fabric.routers[node]
            if choice is None:
                if len(router.injection) < INJECTION_DEPTH:
                    pair.place(node, destination % n, tag)
                continue
            neighbor = router.neighbors[choice % len(router.neighbors)]
            vc %= router.num_vcs
            if len(router.in_buffers[(neighbor, vc)]) < pair.fabric.link_buffer_depth:
                pair.place(node, destination % n, tag, neighbor=neighbor, vc=vc)
        elif op == "drain":
            node, on = args
            draining[node % n] = on
        else:
            for _ in range(args[0]):
                pair.step()
                # A draining endpoint retires one message a cycle.
                for node in range(n):
                    if draining[node]:
                        pair.next(node)
    for _ in range(10):
        pair.step()


FUZZ = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(FUZZ, max_examples=60)
@given(scenarios())
def test_holds_match_per_cycle_arbitration(scenario):
    run_scenario(scenario)


@pytest.mark.slow
@settings(FUZZ, max_examples=1500)
@given(scenarios())
def test_holds_match_per_cycle_arbitration_at_length(scenario):
    run_scenario(scenario)


# ----------------------------------------------------------------------
# Named cases.
# ----------------------------------------------------------------------


def blocked_line() -> Pair:
    """Nodes 0 - 1 - 2 in a row, one-deep links: node 2 refuses, its
    router holds a head it cannot eject, and router 1 holds a head bound
    for node 2 whose one candidate is that full buffer."""
    pair = Pair(Mesh2D(3, 1), input_capacity=1)
    pair.fill(2, tag=100)
    pair.place(2, destination=2, tag=1, neighbor=1)
    pair.place(1, destination=2, tag=2, neighbor=0)
    assert pair.step() == 0
    assert pair.fabric.routers[1].hold is not None
    assert pair.fabric.routers[2].hold is None
    assert pair.step() == 1
    return pair


def test_a_placement_ends_the_hold():
    pair = blocked_line()
    router = pair.fabric.routers[1]
    pair.place(1, destination=0, tag=3)
    assert pair.step() == 0
    assert router.stats.forwarded == 1
    assert list(pair.fabric.routers[0].in_buffers[(1, 0)])[0].message.word(1) == 3


def test_an_injection_ends_the_hold():
    pair = blocked_line()
    router = pair.fabric.routers[1]
    pair.send(1, 0, tag=3)
    # The message enters router 1 at the end of this cycle, after the
    # router's turn.
    assert pair.step() == 1
    assert router.occupancy == 2
    assert pair.step() == 0
    assert router.stats.forwarded == 1


def test_a_downstream_drain_ends_the_hold():
    pair = blocked_line()
    router = pair.fabric.routers[1]
    pair.next(2)
    # Router 2 ejects this cycle; the slot it frees is credit next cycle.
    assert pair.step() == 1
    assert pair.fabric.routers[2].stats.ejected == 1
    assert pair.step() == 0
    assert router.stats.forwarded == 1
    assert router.occupancy == 0


def test_a_router_with_a_refused_ejection_head_never_holds():
    pair = blocked_line()
    pair.fill(1, tag=101)
    # Router 1 now also holds a head for its own node, which refuses.
    pair.place(1, destination=1, tag=4, neighbor=2)
    for _ in range(20):
        assert pair.step() == 0
        assert pair.fabric.routers[1].hold is None
        assert pair.fabric.routers[2].hold is None
    assert pair.fabric.routers[1].stats.blocked_moves == 2 + 20 * 2


def test_hypercube_rankings_redraw_through_500_held_cycles():
    """Router 0 of a 3-cube holds two heads for nodes 7 and 6: three and
    two ranked ports, every one full behind a refusing endpoint, so each
    held cycle draws both rankings again and the drawn leaders decide
    which links are charged."""
    pair = Pair(Hypercube(3), policy=1, seed=3, input_capacity=1)
    for tag, neighbor in enumerate((1, 2, 4)):
        pair.fill(neighbor, tag=100 + tag)
        pair.place(neighbor, destination=neighbor, tag=tag, neighbor=0)
    pair.place(0, destination=7, tag=10)
    pair.place(0, destination=6, tag=11, neighbor=1)
    pair.step()
    start = rng_state(pair.fabric)
    for _ in range(500):
        assert pair.step() == 1
    assert rng_state(pair.fabric) != start
    charged = pair.fabric.routers[0].stats.blocked_moves
    # One link charged when the two leaders agree, two when they differ.
    assert 501 < charged < 2 * 501


def test_a_deadlocked_adaptive_mesh_redraws_through_500_held_cycles():
    """Uniform traffic deadlocks an adaptive 8x8 mesh; 500 cycles later
    the held routers have drawn exactly what per-cycle arbitration
    draws."""
    pair = Pair(
        Mesh2D(8, 8), policy=1, seed=5, input_capacity=2, observed=False
    )
    sources = [TrafficSource(fabric, "uniform", 0.6, 5, duration=150) for fabric in pair.sides]
    sinks = [TrafficSink(fabric) for fabric in pair.sides]
    cycle = 0
    quiet = 0
    while quiet < 20:
        cycle += 1
        assert cycle < 2_000, "the mesh did not deadlock"
        delivered = 0
        for fabric, source, sink in zip(pair.sides, sources, sinks):
            source.tick(cycle)
            delivered = fabric.step()
            sink.tick(cycle)
        quiet = quiet + 1 if cycle > 150 and not delivered else 0
    pair.check()
    assert pair.fabric.find_deadlock() is not None
    start = rng_state(pair.fabric)
    for _ in range(500):
        assert pair.step(check=False) > 0
    pair.check()
    assert rng_state(pair.fabric) != start


# ----------------------------------------------------------------------
# The holds engage.
# ----------------------------------------------------------------------


class FabricOf(Observer):
    """Keeps the fabric it observes."""

    fabric = None

    def on_step(self, ts, fabric, delivered, link_moves):
        self.fabric = fabric


def test_holds_serve_the_paper_scale_hot_spot():
    """47,561 of the run's router arbitrations are replays (the floor is
    that count rounded down): a change that stops holding fails here, not
    only in the benchmark."""
    observer = FabricOf()
    payload = run_hotspot(hotspot_params(EvalOptions(paper_scale=True)), lineage=observer)
    assert payload["blocked_moves"] == 59_348
    assert observer.fabric.stats.held >= 47_000
