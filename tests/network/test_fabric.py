"""Tests for the router and fabric, including the flow-control story."""

import pytest

from repro.errors import NetworkError, RoutingError, SimStallError
from repro.network.fabric import Fabric
from repro.network.router import INJECTION_DEPTH, InTransit
from repro.network.topology import Mesh2D
from repro.nic.messages import Message, pack_destination


def msg(dest: int, tag: int = 0) -> Message:
    return Message(2, (pack_destination(dest), tag, 0, 0, 0))


class TestRouter:
    """Router buffers, filled by hand through ``Fabric.place``."""

    def make(self) -> Fabric:
        # Node 0 of a 2x2 mesh has links from nodes 1 and 2 only.
        return Fabric(Mesh2D(2, 2), link_buffer_depth=2)

    def test_placement_counts_one_hop(self):
        fabric = self.make()
        item = InTransit(msg(0), 0)
        fabric.place(0, item, neighbor=1)
        router = fabric.routers[0]
        assert item.hops == 1
        assert router.occupancy == fabric.in_flight() == 1
        assert router.in_buffers[(1, 0)][0] is item
        assert fabric.routers[1].stats.forwarded == 0

    def test_link_buffer_bounded(self):
        fabric = self.make()
        fabric.place(0, InTransit(msg(0), 0), neighbor=1)
        fabric.place(0, InTransit(msg(0), 0), neighbor=1)
        with pytest.raises(NetworkError, match="link buffer from 1 vc0 is full"):
            fabric.place(0, InTransit(msg(0), 0), neighbor=1)
        assert fabric.routers[0].occupancy == fabric.in_flight() == 2

    def test_unknown_link_rejected(self):
        fabric = self.make()
        # Diagonal, outside the mesh either way, and a channel the
        # one-VC fabric does not have.
        for neighbor, vc in ((3, 0), (9, 0), (-1, 0), (1, 1)):
            with pytest.raises(NetworkError, match="has no link"):
                fabric.place(0, InTransit(msg(0), 0), neighbor=neighbor, vc=vc)
        assert fabric.in_flight() == 0

    def test_injection_bounded(self):
        fabric = self.make()
        for _ in range(INJECTION_DEPTH):
            fabric.place(0, InTransit(msg(0), 0))
        with pytest.raises(NetworkError, match="injection buffer full"):
            fabric.place(0, InTransit(msg(0), 0))
        router = fabric.routers[0]
        assert router.stats.injected == router.occupancy == INJECTION_DEPTH
        assert fabric.in_flight() == INJECTION_DEPTH

    def test_links_served_before_injection(self):
        fabric = self.make()
        router = fabric.routers[0]
        assert router.service_order[-1] is router.injection
        # Both heads want node 0's one ejection port: the link's wins.
        fabric.place(0, InTransit(msg(0, tag=1), 0))
        fabric.place(0, InTransit(msg(0, tag=2), 0), neighbor=2)
        fabric.step()
        assert fabric.interface(0).read_input(1) == 2
        assert len(router.injection) == 1


class TestFabricDelivery:
    def make(self, **kwargs) -> Fabric:
        return Fabric(Mesh2D(3, 3), serialization_cycles=1, **kwargs)

    def send_from(self, fabric: Fabric, source: int, dest: int, tag: int = 7):
        ni = fabric.interface(source)
        ni.write_output(0, pack_destination(dest))
        ni.write_output(1, tag)
        ni.send(2)

    def test_delivers_across_mesh(self):
        fabric = self.make()
        self.send_from(fabric, 0, 8, tag=42)
        fabric.run_until_quiescent()
        target = fabric.interface(8)
        assert target.msg_valid
        assert target.read_input(1) == 42

    def test_local_delivery(self):
        fabric = self.make()
        self.send_from(fabric, 4, 4, tag=9)
        fabric.run_until_quiescent()
        assert fabric.interface(4).read_input(1) == 9

    def test_hop_count_recorded(self):
        fabric = self.make()
        self.send_from(fabric, 0, 8)
        fabric.run_until_quiescent()
        # Route 0 -> 8 in a 3x3 mesh is 4 hops plus the ejection.
        assert fabric.stats.delivered == 1
        assert fabric.stats.mean_hops >= 4

    def test_many_to_one_all_arrive(self):
        fabric = self.make()
        senders = [n for n in range(9) if n != 4]
        for tag, source in enumerate(senders):
            self.send_from(fabric, source, 4, tag=tag)
        # Drain with the receiver consuming as messages arrive.
        received = []
        for _ in range(2000):
            fabric.step()
            ni = fabric.interface(4)
            while ni.msg_valid:
                received.append(ni.read_input(1))
                ni.next()
            if len(received) == len(senders):
                break
        assert sorted(received) == list(range(len(senders)))

    def test_destination_outside_topology_rejected_at_injection(self):
        fabric = Fabric(Mesh2D(4, 4), serialization_cycles=1)
        self.send_from(fabric, 3, 20)
        with pytest.raises(RoutingError, match="node 3 sent to node 20, outside Mesh2D 4x4"):
            fabric.step()
        # The message never left its output queue.
        assert fabric.interface(3).output_queue.depth == 1
        assert fabric.in_flight() == 0

    def test_serialization_delays_injection(self):
        slow = Fabric(Mesh2D(2, 1), serialization_cycles=6)
        self.send_from(slow, 0, 1)
        cycles = slow.run_until_quiescent()
        assert cycles >= 6

    def test_interface_count_checked(self):
        from repro.nic.interface import NetworkInterface

        with pytest.raises(NetworkError):
            Fabric(Mesh2D(2, 2), [NetworkInterface(node=0)])

    def test_quiescence_timeout(self):
        from repro.nic.interface import NetworkInterface

        # A receiver with almost no buffering that never services: traffic
        # jams in the network and the fabric can never drain.
        interfaces = [
            NetworkInterface(node=n, input_capacity=1) for n in range(2)
        ]
        fabric = Fabric(
            Mesh2D(2, 1),
            interfaces,
            link_buffer_depth=1,
            serialization_cycles=1,
        )
        for tag in range(8):
            self.send_from(fabric, 0, 1, tag=tag)
            fabric.step()
        with pytest.raises(SimStallError):
            fabric.run_until_quiescent(max_cycles=500)


class TestBackpressure:
    def test_slow_receiver_backs_up_into_sender(self):
        """Section 2.1.1's chain: full input queue -> network -> output queue."""
        fabric = Fabric(
            Mesh2D(2, 1),
            link_buffer_depth=1,
            serialization_cycles=1,
        )
        sender = fabric.interface(0)
        # Never service node 1; keep sending until the sender's own output
        # queue jams.
        stalled = False
        for tag in range(200):
            sender.write_output(0, pack_destination(1))
            sender.write_output(1, tag)
            from repro.nic.interface import SendResult

            if sender.send(2) is SendResult.STALLED:
                stalled = True
                break
            for _ in range(3):
                fabric.step()
        assert stalled
        # Nothing was lost: receiver-side queue + registers + routers +
        # sender-side output queue account for every sent message.
        receiver = fabric.interface(1)
        in_network = fabric.in_flight()
        buffered = (
            receiver.input_queue.depth
            + (1 if receiver.msg_valid else 0)
            + in_network
            + sender.output_queue.depth
        )
        assert buffered == sender.stats.sends

    def test_draining_receiver_releases_backpressure(self):
        fabric = Fabric(Mesh2D(2, 1), link_buffer_depth=1, serialization_cycles=1)
        sender = fabric.interface(0)
        receiver = fabric.interface(1)
        from repro.nic.interface import SendResult

        # Jam the path.
        sent = 0
        for tag in range(200):
            sender.write_output(0, pack_destination(1))
            if sender.send(2) is SendResult.STALLED:
                break
            sent += 1
            fabric.step()
        # Drain the receiver; the stalled send must now succeed.
        for _ in range(200):
            while receiver.msg_valid:
                receiver.next()
            fabric.step()
        assert sender.send(2) is SendResult.SENT
