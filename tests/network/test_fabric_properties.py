"""Property-based tests for the fabric: conservation, delivery, and
steps with nothing pending."""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.network.fabric import Fabric
from repro.network.routing import POLICY_NAMES, make_policy
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.nic.messages import pack_destination
from repro.obs.observer import Observer

topologies = st.sampled_from(
    [Mesh2D(3, 3), Mesh2D(4, 2), Torus2D(3, 3), Hypercube(3)]
)


@st.composite
def traffic(draw):
    topology = draw(topologies)
    n = topology.n_nodes
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return topology, sends


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(data=traffic())
    def test_every_message_delivered_exactly_once(self, data):
        topology, sends = data
        fabric = Fabric(topology, serialization_cycles=1)
        tagged = []
        for tag, (source, dest) in enumerate(sends):
            ni = fabric.interface(source)
            ni.write_output(0, pack_destination(dest))
            ni.write_output(1, tag)
            ni.send(2)
            tagged.append((tag, dest))
        # Drain, consuming at every endpoint so nothing backs up.
        received = []
        for _ in range(5000):
            fabric.step()
            for router in fabric.routers:
                # The maintained occupancy count never drifts from the buffers.
                assert router.occupancy == sum(map(len, router.service_order))
            # Nor does the fabric's in-flight count from the routers'.
            assert fabric.in_flight() == sum(r.occupancy for r in fabric.routers)
            for node in range(topology.n_nodes):
                ni = fabric.interface(node)
                while ni.msg_valid:
                    received.append((ni.read_input(1), node))
                    ni.next()
            if len(received) == len(tagged) and fabric.pending() == 0:
                break
        assert sorted(received) == sorted(tagged)

    @settings(max_examples=40, deadline=None)
    @given(data=traffic())
    def test_hop_counts_match_topology_routes(self, data):
        topology, sends = data
        fabric = Fabric(topology, serialization_cycles=1)
        expected_hops = 0
        for tag, (source, dest) in enumerate(sends):
            ni = fabric.interface(source)
            ni.write_output(0, pack_destination(dest))
            ni.send(2)
            # Dimension-order routes are minimal: each link move is one
            # hop, injection and ejection are none, so a message makes
            # exactly its distance in hops.
            expected_hops += topology.distance(source, dest)
        for _ in range(5000):
            fabric.step()
            for node in range(topology.n_nodes):
                ni = fabric.interface(node)
                while ni.msg_valid:
                    ni.next()
            if fabric.pending() == 0 and fabric.stats.delivered == len(sends):
                break
        assert fabric.stats.delivered == len(sends)
        assert fabric.stats.total_hops == expected_hops


IDLE_TOPOLOGIES = [
    Mesh2D(2, 2),
    Mesh2D(3, 3),
    Mesh2D(4, 2),
    Torus2D(3, 3),
    Torus2D(4, 4),
    Hypercube(2),
    Hypercube(3),
]


@st.composite
def drained_runs(draw):
    topology = draw(st.sampled_from(IDLE_TOPOLOGIES))
    n = topology.n_nodes
    return dict(
        topology=topology,
        policy=draw(st.sampled_from(POLICY_NAMES)),
        seed=draw(st.integers(0, 2**16)),
        depth=draw(st.integers(1, 3)),
        serialization=draw(st.integers(1, 3)),
        drain_every=draw(st.integers(1, 3)),
        sends=draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24
            )
        ),
        idle=draw(st.integers(1, 20)),
    )


def drained_fabric(run) -> Fabric:
    """``run``'s traffic sent and delivered, endpoints retiring messages
    every ``drain_every`` cycles: nothing is left pending, and the last
    deliveries wait in input registers and queues."""
    fabric = Fabric(
        run["topology"],
        link_buffer_depth=run["depth"],
        serialization_cycles=run["serialization"],
        routing=make_policy(run["policy"], run["seed"]),
    )
    for tag, (source, destination) in enumerate(run["sends"]):
        interface = fabric.interface(source)
        interface.write_output(0, pack_destination(destination))
        interface.write_output(1, tag)
        interface.send(2)
    for _ in range(2_000):
        if not fabric.pending():
            break
        fabric.step()
        if fabric.pending() and fabric.stats.cycles % run["drain_every"] == 0:
            for interface in fabric.interfaces:
                while interface.msg_valid:
                    interface.next()
    assume(not fabric.pending())  # an adaptive policy may deadlock
    return fabric


def fabric_state(fabric: Fabric):
    """Everything a step could change, ``stats.cycles`` aside."""
    rng = getattr(fabric.routing, "_rng", None)
    return (
        dataclasses.replace(fabric.stats, cycles=0),
        fabric.in_flight(),
        dict(fabric._injection_timers),
        [
            (router.stats, router.occupancy, [list(b) for b in router.service_order])
            for router in fabric.routers
        ],
        [
            (
                interface.stats,
                list(interface.input_queue),
                list(interface.output_queue),
                interface.msg_valid,
                interface.current_message,
            )
            for interface in fabric.interfaces
        ],
        None if rng is None else rng.getstate(),
    )


class Steps(Observer):
    def __init__(self):
        self.events = []

    def on_step(self, ts, fabric, delivered, link_moves):
        self.events.append((ts, delivered, link_moves))


class TestIdleSteps:
    """A step with nothing pending moves, injects and draws nothing: it
    changes ``stats.cycles`` and raises ``on_step``, and nothing else, so
    a driver may step its fabric on every kernel cycle."""

    @settings(max_examples=60, deadline=None)
    @given(run=drained_runs())
    def test_only_the_cycle_count_changes(self, run):
        stepped, twin = drained_fabric(run), drained_fabric(run)
        assert fabric_state(stepped) == fabric_state(twin)
        holds = [router.hold for router in stepped.routers]
        steps = Steps()
        stepped.attach(steps)
        start = stepped.stats.cycles
        for _ in range(run["idle"]):
            assert stepped.step() == 0
        assert stepped.stats.cycles == start + run["idle"]
        assert fabric_state(stepped) == fabric_state(twin)
        assert all(router.hold is hold for router, hold in zip(stepped.routers, holds))
        assert steps.events == [
            (start + k, 0, 0) for k in range(1, run["idle"] + 1)
        ]
