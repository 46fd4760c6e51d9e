"""Tests for the node service loop and behavioural handlers."""

import pytest

from repro.errors import MessageFormatError, QueueOverflowError
from repro.kernels import protocol as P
from repro.nic.messages import pack_destination
from repro.node.handlers import (
    build_pread_request,
    build_pwrite_request,
    build_read_request,
    build_send,
    build_write_request,
)
from repro.node.node import Node


def make_node(node_id: int = 0) -> Node:
    return Node(node_id)


class TestServiceLoop:
    def test_idle_when_no_messages(self):
        node = make_node()
        assert node.idle
        assert not node.service_one()

    def test_service_counts_by_type(self):
        node = make_node()
        node.interface.deliver(build_write_request(0, 0x100, 1))
        node.interface.deliver(build_write_request(0, 0x104, 2))
        assert node.service() == 2
        assert node.stats.handled == 2

    def test_service_limit(self):
        node = make_node()
        for i in range(4):
            node.interface.deliver(build_write_request(0, 0x100 + 4 * i, i))
        assert node.service(limit=2) == 2
        assert not node.idle

    def test_unknown_type_raises(self):
        node = Node(0, handlers={})
        node.interface.deliver(build_write_request(0, 0x100, 1))
        with pytest.raises(MessageFormatError):
            node.service_one()


class TestWriteAndReadHandlers:
    def test_write_banks_value(self):
        node = make_node()
        node.interface.deliver(build_write_request(0, 0x200, 0xBEEF))
        node.service()
        assert node.memory.load(0x200) == 0xBEEF

    def test_read_replies_with_value(self):
        node = make_node()
        node.memory.store(0x300, 77)
        node.interface.deliver(
            build_read_request(0, 0x300, pack_destination(1, 0x50), 0x4444)
        )
        node.service()
        reply = node.interface.transmit()
        assert reply.mtype == P.TYPE_SEND
        assert reply.destination == 1
        assert reply.word(0) == pack_destination(1, 0x50)
        assert reply.word(1) == 0x4444
        assert reply.word(2) == 77


class TestSendHandler:
    def test_send_invokes_inlet_with_data(self):
        node = make_node()
        seen = []

        def inlet(n, message):
            seen.append((message.m0_low, message.word(2), message.word(3)))

        ip = node.register_inlet(inlet)
        node.interface.deliver(build_send(0, 0x20, ip, data=(5, 6)))
        node.service()
        assert seen == [(0x20, 5, 6)]

    def test_unregistered_inlet_raises(self):
        node = make_node()
        node.interface.deliver(build_send(0, 0, 0x9999))
        with pytest.raises(MessageFormatError):
            node.service_one()

    def test_inlet_ips_unique(self):
        node = make_node()
        a = node.register_inlet(lambda n, m: None)
        b = node.register_inlet(lambda n, m: None)
        assert a != b

    def test_explicit_ip_collision_rejected(self):
        node = make_node()
        node.register_inlet(lambda n, m: None, ip=0x100)
        with pytest.raises(MessageFormatError):
            node.register_inlet(lambda n, m: None, ip=0x100)

    def test_send_data_word_limit(self):
        with pytest.raises(MessageFormatError):
            build_send(0, 0, 0x4000, data=(1, 2, 3))


class TestPresenceHandlers:
    def test_pread_full_replies(self):
        node = make_node()
        desc = node.istructures.allocate(4)
        node.istructures.write(desc, 2, 11)
        node.interface.deliver(
            build_pread_request(0, desc, 2, pack_destination(1, 0), 0x4000)
        )
        node.service()
        reply = node.interface.transmit()
        assert reply.word(2) == 11

    def test_pread_empty_defers_silently(self):
        node = make_node()
        desc = node.istructures.allocate(4)
        node.interface.deliver(
            build_pread_request(0, desc, 1, pack_destination(1, 0), 0x4000)
        )
        node.service()
        assert node.interface.transmit() is None
        assert node.istructures.waiter_count(desc, 1) == 1

    def test_pwrite_satisfies_deferred_readers_via_forward(self):
        node = make_node()
        desc = node.istructures.allocate(2)
        for i in range(3):
            node.interface.deliver(
                build_pread_request(0, desc, 0, pack_destination(2, 0x10 * i), 0x4000 + i)
            )
        node.service()
        assert node.interface.peek_outgoing() is None
        node.interface.deliver(build_pwrite_request(0, desc, 0, 0xAB))
        node.service()
        replies = []
        while (reply := node.interface.transmit()) is not None:
            replies.append(reply)
        assert len(replies) == 3
        assert all(r.word(2) == 0xAB for r in replies)
        assert [r.word(1) for r in replies] == [0x4000, 0x4001, 0x4002]
        assert all(r.destination == 2 for r in replies)


class TestSendRetry:
    def test_send_without_drain_hook_raises_when_jammed(self):
        from repro.nic.interface import NetworkInterface

        node = Node(0, interface=NetworkInterface(node=0, output_capacity=1))
        node.interface.write_output(0, pack_destination(0))
        node.send_with_retry(P.TYPE_WRITE)
        with pytest.raises(QueueOverflowError):
            node.send_with_retry(P.TYPE_WRITE)

    def test_send_retries_through_drain_hook(self):
        from repro.nic.interface import NetworkInterface

        node = Node(0, interface=NetworkInterface(node=0, output_capacity=1))
        drained = []

        def drain():
            drained.append(node.interface.transmit())

        node.set_drain_hook(drain)
        node.interface.write_output(0, pack_destination(0))
        node.send_with_retry(P.TYPE_WRITE)
        node.send_with_retry(P.TYPE_WRITE)
        assert node.stats.send_retries >= 1
        assert drained
