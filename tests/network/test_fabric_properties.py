"""Property-based tests for the fabric: conservation and delivery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import Fabric
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.nic.messages import pack_destination

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
