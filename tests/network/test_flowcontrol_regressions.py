"""Regressions for the flow-control bugfix sweep.

Each test pins one of the fixed behaviours:

* link credits are snapshotted at cycle start, so a buffer slot freed by
  an earlier move in the same cycle cannot be consumed by a later one;
* the injection serialization timer belongs to the specific head-of-queue
  message it was started for;
* ``try_push`` counts refused attempts exactly as ``push`` does;
* ``forwarded`` counts link moves only (no double-count with ``ejected``);
* ``deliveries_refused`` equals the per-interface ``refused`` sum;
* a small-capacity queue's default threshold still asserts ``almost_full``
  strictly before ``is_full``.
"""

import pytest

from repro.errors import QueueOverflowError
from repro.network.fabric import Fabric
from repro.network.router import InTransit
from repro.network.topology import Mesh2D
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message, pack_destination
from repro.nic.queues import MessageQueue, default_threshold


def msg(dest: int, tag: int = 0) -> Message:
    return Message(2, (pack_destination(dest), tag, 0, 0, 0))


def send_from(fabric: Fabric, source: int, dest: int, tag: int = 7):
    ni = fabric.interface(source)
    ni.write_output(0, pack_destination(dest))
    ni.write_output(1, tag)
    return ni.send(2)


class TestCreditSnapshot:
    """A slot freed this cycle is not reusable until the next cycle."""

    def make(self) -> Fabric:
        # A 3x1 line with single-slot link buffers: 2 -> 1 -> 0.
        return Fabric(Mesh2D(3, 1), link_buffer_depth=1, serialization_cycles=1)

    def test_freed_slot_not_reused_same_cycle(self):
        fabric = self.make()
        # Router 1 already holds a message from node 2 (its from-2 buffer
        # is full); router 2 holds another, wanting that same buffer.
        fabric.place(1, InTransit(msg(0), 0), neighbor=2)
        fabric.place(2, InTransit(msg(0), 0))
        fabric.step()
        # The first message moved 1 -> 0, freeing the from-2 buffer, but
        # the credit snapshot was taken before any move: the second
        # message must still be waiting in router 2.
        assert fabric.routers[0].occupancy == 1
        assert fabric.routers[1].occupancy == 0
        assert fabric.routers[2].occupancy == 1
        assert fabric.routers[2].stats.blocked_moves == 1
        # Next cycle the freed slot is visible and the move happens.
        fabric.step()
        assert fabric.routers[2].occupancy == 0
        assert fabric.routers[1].occupancy == 1

    def test_drain_order_independent_of_router_order(self):
        # Same scenario mirrored (0 -> 1 -> 2): here the downstream
        # router (1) is iterated *after* the upstream one... the upstream
        # message must be blocked identically in both orientations.
        fabric = self.make()
        fabric.place(1, InTransit(msg(2), 0), neighbor=0)
        fabric.place(0, InTransit(msg(2), 0))
        fabric.step()
        assert fabric.routers[0].occupancy == 1
        assert fabric.routers[0].stats.blocked_moves == 1


class TestSerializationTimer:
    def make(self, cycles: int) -> Fabric:
        return Fabric(Mesh2D(2, 1), serialization_cycles=cycles)

    def test_full_serialization_delay(self):
        fabric = self.make(3)
        send_from(fabric, 0, 1)
        for _ in range(2):
            fabric.step()
            assert fabric.routers[0].stats.injected == 0
        fabric.step()
        assert fabric.routers[0].stats.injected == 1

    def test_new_head_does_not_inherit_timer(self):
        fabric = self.make(3)
        send_from(fabric, 0, 1, tag=1)
        fabric.step()  # serialization of the first head underway
        # The first head disappears (drained by software between cycles);
        # a different message becomes head-of-queue.
        fabric.interface(0).output_queue.clear()
        send_from(fabric, 0, 1, tag=2)
        # The new head must serialise from scratch: three full cycles,
        # not the one remaining from the vanished message's countdown.
        fabric.step()
        fabric.step()
        assert fabric.routers[0].stats.injected == 0
        fabric.step()
        assert fabric.routers[0].stats.injected == 1

    def test_same_message_requeued_after_an_empty_cycle_starts_over(self):
        # A cycle that finds the output queue empty drops the countdown,
        # so even the same message, queued again, serialises from scratch.
        fabric = self.make(3)
        send_from(fabric, 0, 1, tag=1)
        fabric.step()
        fabric.step()  # one cycle of three left
        queue = fabric.interface(0).output_queue
        head = queue.peek()
        queue.clear()
        fabric.step()
        queue.push(head)
        fabric.step()
        fabric.step()
        assert fabric.routers[0].stats.injected == 0
        fabric.step()
        assert fabric.routers[0].stats.injected == 1

    def test_timer_resets_after_idle(self):
        fabric = self.make(2)
        send_from(fabric, 0, 1, tag=1)
        fabric.step()
        fabric.step()
        assert fabric.routers[0].stats.injected == 1
        fabric.run_until_quiescent()
        # A later send starts its own countdown from the top.
        send_from(fabric, 0, 1, tag=2)
        fabric.step()
        assert fabric.routers[0].stats.injected == 1
        fabric.step()
        assert fabric.routers[0].stats.injected == 2


class TestCounterSemantics:
    def test_try_push_counts_rejections(self):
        queue = MessageQueue("t", capacity=1)
        assert queue.try_push(msg(0))
        assert not queue.try_push(msg(0))
        assert not queue.try_push(msg(0))
        assert queue.stats.rejected == 2
        with pytest.raises(QueueOverflowError):
            queue.push(msg(0))
        assert queue.stats.rejected == 3
        assert queue.stats.pushes == 1

    def test_forwarded_excludes_ejection_hop(self):
        # 0 -> 1 -> 2 on a line: two link moves, one ejection.
        fabric = Fabric(Mesh2D(3, 1), serialization_cycles=1)
        send_from(fabric, 0, 2)
        fabric.run_until_quiescent()
        assert sum(r.stats.forwarded for r in fabric.routers) == 2
        assert sum(r.stats.ejected for r in fabric.routers) == 1
        assert fabric.stats.delivered == 1
        assert fabric.stats.total_hops == 2

    def test_local_delivery_forwards_nothing(self):
        fabric = Fabric(Mesh2D(2, 1), serialization_cycles=1)
        send_from(fabric, 0, 0)
        fabric.run_until_quiescent()
        assert sum(r.stats.forwarded for r in fabric.routers) == 0
        assert fabric.routers[0].stats.ejected == 1

    def test_deliveries_refused_matches_interface_refusals(self):
        # A receiver that never services: its single-slot input queue
        # fills and every further ejection attempt is refused.
        interfaces = [
            NetworkInterface(node=0),
            NetworkInterface(node=1, input_capacity=1),
        ]
        fabric = Fabric(
            Mesh2D(2, 1), interfaces, serialization_cycles=1, link_buffer_depth=1
        )
        for _ in range(4):
            send_from(fabric, 0, 1)
        for _ in range(40):
            fabric.step()
        stats = fabric.stats
        assert stats.deliveries_refused > 0
        assert stats.deliveries_refused == interfaces[1].stats.refused
        # Refused attempts never touch the queue's own rejection counter
        # (the fabric refuses on credit, before the push is attempted).
        assert interfaces[1].input_queue.stats.rejected == 0


class TestSmallCapacityThreshold:
    def test_default_threshold_tracks_capacity(self):
        assert default_threshold(16) == 12
        assert default_threshold(4) == 0
        assert default_threshold(2) == 0

    def test_almost_full_asserts_before_full(self):
        for capacity in (2, 4, 6, 16):
            queue = MessageQueue("t", capacity=capacity)
            asserted_before_full = False
            for _ in range(capacity):
                if queue.almost_full:
                    asserted_before_full = True
                queue.push(msg(0))
            assert queue.is_full
            assert asserted_before_full or queue.almost_full
            # The condition must have asserted strictly before the queue
            # filled, at any capacity.
            assert asserted_before_full, f"capacity {capacity}"

    def test_explicit_threshold_still_clamped(self):
        queue = MessageQueue("t", capacity=4, threshold=12)
        assert queue.threshold == 4
