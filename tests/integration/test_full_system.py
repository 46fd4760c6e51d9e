"""Cross-layer integration tests.

These tie the layers together: the assembly kernels against the
behavioural handlers, the RTL chip model against the architectural model,
the fabric against the protection machinery, and the whole TAM-to-Figure
-12 pipeline.
"""

from repro.api.cluster import Cluster
from repro.impls.base import OPTIMIZED_REGISTER
from repro.kernels import protocol as P
from repro.network.topology import Mesh2D
from repro.nic.dispatch import decode_table_address
from repro.nic.interface import NetworkInterface, SendMode
from repro.nic.messages import Message, pack_destination
from repro.nic.rtl import ClockedNIC, serialize
from repro.node.handlers import build_read_request
from repro.node.node import Node


class TestKernelVersusBehaviouralHandlers:
    """The assembly kernels and the Python handlers implement one protocol."""

    def test_read_reply_identical(self):
        request = build_read_request(
            destination=0,
            address=0x1000,
            reply_fp=pack_destination(1, 0x3000),
            reply_ip=P.REPLY_IP,
        )
        # Behavioural path.
        node = Node(0)
        node.memory.store(0x1000, 0x7777)
        node.interface.deliver(request)
        node.service()
        behavioural_reply = node.interface.transmit()
        # Kernel path.
        from repro.kernels.harness import _fresh_machine
        from repro.kernels.sequences import processing_kernel

        machine = _fresh_machine(OPTIMIZED_REGISTER)
        machine.memory.store(0x1000, 0x7777)
        machine.interface.deliver(request)
        machine.run(processing_kernel("read", OPTIMIZED_REGISTER).sequence)
        kernel_reply = machine.interface.transmit()
        assert kernel_reply.words == behavioural_reply.words
        assert kernel_reply.mtype == behavioural_reply.mtype

    def test_pwrite_forwarding_identical(self):
        from repro.node.handlers import build_pread_request, build_pwrite_request

        def run_scenario(consume):
            """Two deferred readers, then the write; returns the replies."""
            node = Node(0)
            desc = node.istructures.allocate(2)
            for i in range(2):
                node.interface.deliver(
                    build_pread_request(
                        0, desc, 0, pack_destination(1, 0x100 * (i + 1)), 0x4000 + i
                    )
                )
            node.service()
            node.interface.deliver(build_pwrite_request(0, desc, 0, 0xAB))
            node.service()
            replies = []
            while (reply := node.interface.transmit()) is not None:
                replies.append(reply)
            return replies

        replies = run_scenario(True)
        assert len(replies) == 2
        assert [r.word(2) for r in replies] == [0xAB, 0xAB]
        assert [r.word(1) for r in replies] == [0x4000, 0x4001]


class TestRtlIntoSystem:
    def test_flit_serial_delivery_feeds_handlers(self):
        """A message serialised by one RTL chip, delivered into a Node."""
        sender = ClockedNIC(NetworkInterface(node=0))
        receiver_node = Node(1)
        receiver = ClockedNIC(receiver_node.interface)
        # Compose a remote write on the sender's architectural interface.
        sender.interface.write_output(0, pack_destination(1, 0x40))
        sender.interface.write_output(1, 0xBEEF)
        sender.interface.send(P.TYPE_WRITE)
        # Clock both chips, wire tx(a) -> rx(b).
        wire = None
        for _ in range(30):
            out_flit = sender.tick()
            if wire is not None:
                receiver.tick(rx_flit=wire)
            wire = out_flit
            if receiver_node.interface.msg_valid:
                break
        assert receiver_node.service() == 1
        assert receiver_node.memory.load(0x40) == 0xBEEF

    def test_rtl_serialization_matches_fabric_model(self):
        from repro.nic.messages import FLITS_PER_MESSAGE

        message = Message(2, (pack_destination(0), 1, 2, 3, 4))
        assert len(serialize(message)) == FLITS_PER_MESSAGE


class TestClusterScenarios:
    def test_hot_spot_remote_reads(self):
        """Many nodes read one node's counter; every reply is correct."""
        cluster = Cluster(Mesh2D(4, 4))
        cluster.node(5).memory.store(0x100, 4242)
        values = [
            cluster.remote_read(source=s, target=5, address=0x100)
            for s in range(16)
            if s != 5
        ]
        assert values == [4242] * 15

    def test_producer_consumer_pipeline(self):
        """A chain of I-structure handoffs across the mesh."""
        cluster = Cluster(Mesh2D(4, 2))
        descs = [cluster.istructure_alloc(n, length=1) for n in range(8)]
        pendings = [
            cluster.istructure_read(source=(n + 1) % 8, target=n, descriptor=descs[n], index=0)
            for n in range(8)
        ]
        assert not any(p.ready for p in pendings)
        for n in range(8):
            cluster.istructure_write(
                source=n, target=n, descriptor=descs[n], index=0, value=100 + n
            )
        assert [p.get() for p in pendings] == [100 + n for n in range(8)]

    def test_queue_threshold_shows_in_msgip(self):
        """Boundary conditions: iafull selects the handler version."""
        ni = NetworkInterface(node=0)
        ni.ip_base = 0x8000
        ni.control["iq_threshold"] = 1
        for _ in range(3):
            ni.deliver(Message(P.TYPE_READ, (pack_destination(0), 0, 0, 0, 0)))
        handler, iafull, _ = decode_table_address(ni.msg_ip)
        assert handler == P.TYPE_READ
        assert iafull

    def test_protection_composes_with_fabric(self):
        from repro.nic.protection import ProtectionDomain

        cluster = Cluster(Mesh2D(2, 1))
        domain = ProtectionDomain(cluster.node(1).interface)
        cluster.node(1).interface.control.enable_pin_checking(7)
        # A write tagged with the wrong PIN must be diverted, not applied.
        ni = cluster.node(0).interface
        ni.control["active_pin"] = 9
        ni.write_output(0, pack_destination(1, 0x50))
        ni.write_output(1, 0xAA)
        ni.send(P.TYPE_WRITE)
        cluster.fabric.run_until_quiescent()
        cluster.node(1).service()
        assert cluster.node(1).memory.load(0x50) == 0
        assert len(domain.store.pending_for(9)) == 1


class TestWholePipeline:
    def test_matmul_to_figure12_to_latency(self):
        from repro.eval.figure12 import headline_metrics
        from repro.eval.latency import relative_overheads, sweep
        from repro.exp.runcache import run_program
        from repro.tam.costmap import breakdown_all_models

        stats = run_program("matmul", size=8, nodes=4)
        breakdowns = breakdown_all_models(stats)
        metrics = headline_metrics(breakdowns)
        assert metrics.overhead_reduction > 1.0
        ratios = relative_overheads(sweep(stats, latencies=(2, 8)))
        assert ratios[8] > 1.5

    def test_reply_mode_used_by_system_handlers(self):
        """The full system exercises the REPLY hardware mode for reads."""
        cluster = Cluster(Mesh2D(2, 1))
        cluster.node(1).memory.store(0x10, 5)
        cluster.remote_read(source=0, target=1, address=0x10)
        stats = cluster.node(1).interface.stats
        assert stats.sends_by_mode[SendMode.REPLY] == 1

    def test_forward_mode_used_for_deferred_readers(self):
        cluster = Cluster(Mesh2D(2, 1))
        desc = cluster.istructure_alloc(1, length=1)
        cluster.istructure_read(0, 1, desc, 0)
        cluster.istructure_write(0, 1, desc, 0, value=9)
        stats = cluster.node(1).interface.stats
        assert stats.sends_by_mode[SendMode.FORWARD] == 1
