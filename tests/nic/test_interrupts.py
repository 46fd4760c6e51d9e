"""Tests for interrupt-driven reception (paper Section 2.1's open choice)."""

from dataclasses import replace

from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message, pack_destination


def msg(tag: int = 0) -> Message:
    return Message(2, (pack_destination(0), tag, 0, 0, 0))


class TestArrivalInterrupts:
    def test_polled_by_default(self):
        ni = NetworkInterface()
        ni.deliver(msg())
        assert ni.interrupts_raised == 0

    def test_interrupt_fires_per_delivery(self):
        ni = NetworkInterface()
        fired = []
        ni.enable_arrival_interrupts(lambda: fired.append(True))
        ni.deliver(msg(1))
        ni.deliver(msg(2))
        assert len(fired) == 2
        assert ni.interrupts_raised == 2

    def test_interrupt_sees_queued_message(self):
        ni = NetworkInterface()
        seen = []
        ni.enable_arrival_interrupts(lambda: seen.append(ni.read_input(1)))
        ni.deliver(msg(42))
        assert seen == [42]

    def test_disable_restores_polling(self):
        ni = NetworkInterface()
        fired = []
        ni.enable_arrival_interrupts(lambda: fired.append(True))
        ni.disable_arrival_interrupts()
        ni.deliver(msg())
        assert fired == []

    def test_refused_delivery_does_not_interrupt(self):
        ni = NetworkInterface(input_capacity=1)
        fired = []
        ni.deliver(msg())  # to input registers
        ni.deliver(msg())  # fills the queue
        ni.enable_arrival_interrupts(lambda: fired.append(True))
        assert not ni.deliver(msg())
        assert fired == []

    def test_diverted_messages_do_not_interrupt_user(self):
        # A privileged message must not raise the *user* arrival interrupt.
        ni = NetworkInterface()
        fired = []
        ni.enable_arrival_interrupts(lambda: fired.append(True))
        ni.deliver(replace(msg(), privileged=True))
        assert fired == []

    def test_interrupt_driven_service_loop(self):
        """An interrupt-driven node handles messages with no polling loop."""
        from repro.node.node import Node
        from repro.node.handlers import build_write_request

        node = Node(0)
        node.interface.enable_arrival_interrupts(lambda: node.service())
        node.interface.deliver(build_write_request(0, 0x80, 7))
        # No explicit service call: the interrupt already ran the handler.
        assert node.memory.load(0x80) == 7
        assert node.idle
