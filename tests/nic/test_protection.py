"""Tests for the multi-user protection extensions (paper Section 2.1.3)."""

import pytest

from repro.errors import ProtectionError
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message
from repro.nic.protection import (
    RESERVED_PIN,
    GangScheduler,
    PrivilegedStore,
    ProtectionDomain,
    check_pin,
)
from repro.obs.tracer import REFUSE, Tracer


def msg(pin=0, privileged=False, tag=0) -> Message:
    return Message(2, (0, tag, 0, 0, 0), pin=pin, privileged=privileged)


class TestPrivilegedStore:
    def test_os_messages_separated(self):
        store = PrivilegedStore()
        store.file(msg(privileged=True))
        store.file(msg(pin=3))
        assert len(store.os_messages) == 1
        assert len(store.pending_for(3)) == 1

    def test_take_for_empties(self):
        store = PrivilegedStore()
        store.file(msg(pin=3))
        assert len(store.take_for(3)) == 1
        assert store.pending_for(3) == []

    def test_take_for_missing_pin(self):
        assert PrivilegedStore().take_for(9) == []


class TestProtectionDomain:
    def test_privileged_message_never_reaches_user(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        assert ni.deliver(msg(privileged=True))
        assert not ni.msg_valid
        assert len(domain.store.os_messages) == 1

    def test_pin_mismatch_diverted_and_flagged(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        ni.control.enable_pin_checking(7)
        assert ni.deliver(msg(pin=8, tag=42))
        assert not ni.msg_valid
        assert ni.status["exc_pin_mismatch"] == 1
        assert domain.store.pending_for(8)[0].word(1) == 42

    def test_matching_pin_passes(self):
        ni = NetworkInterface()
        ProtectionDomain(ni)
        ni.control.enable_pin_checking(7)
        ni.deliver(msg(pin=7, tag=1))
        assert ni.msg_valid

    def test_no_checking_means_all_pass(self):
        ni = NetworkInterface()
        ProtectionDomain(ni)
        ni.deliver(msg(pin=99))
        assert ni.msg_valid

    def test_activate_redelivers_stored_messages(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        ni.control.enable_pin_checking(1)
        ni.deliver(msg(pin=2, tag=10))
        ni.deliver(msg(pin=2, tag=11))
        redelivered = domain.activate(2)
        assert redelivered == 2
        assert ni.msg_valid
        assert ni.read_input(1) == 10

    def test_activate_with_full_queue_keeps_remainder(self):
        ni = NetworkInterface(input_capacity=1)
        domain = ProtectionDomain(ni)
        ni.control.enable_pin_checking(1)
        for tag in range(4):
            ni.deliver(msg(pin=2, tag=tag))
        redelivered = domain.activate(2)
        # input regs + 1 queue slot = 2 delivered; the rest stay stored.
        assert redelivered == 2
        assert len(domain.store.pending_for(2)) == 2

    def test_activate_stops_at_first_refusal(self):
        ni = NetworkInterface(input_capacity=1)
        tracer = Tracer(capacity=None)
        ni.attach(tracer)
        domain = ProtectionDomain(ni)
        ni.control.enable_pin_checking(1)
        for tag in range(6):
            ni.deliver(msg(pin=2, tag=tag))
        assert domain.activate(2) == 2
        # One refused attempt ends redelivery; the tail is not retried.
        assert ni.stats.refused == 1
        assert tracer.count(REFUSE) == 1
        assert [m.word(1) for m in domain.store.pending_for(2)] == [2, 3, 4, 5]

    def test_activate_counts_only_messages_that_reach_the_interface(self):
        ni = NetworkInterface()
        ni.set_tenant_cap(1)
        domain = ProtectionDomain(ni)
        ni.control.enable_pin_checking(1)
        for tag in range(5):
            ni.deliver(msg(pin=2, tag=tag))
        # Input registers + one queue slot (the cap); the rest would be
        # cap-diverted straight back, so they stay stored in order.
        assert domain.activate(2) == 2
        assert ni.stats.cap_diverted == 0
        assert [m.word(1) for m in domain.store.pending_for(2)] == [2, 3, 4]

    def test_deactivate(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        domain.activate(4)
        domain.deactivate()
        assert not ni.control.pin_checking

    def test_privileged_interrupt_counted(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        ni.control["privileged_interrupt"] = 1
        ni.deliver(msg(privileged=True))
        assert domain.store.interrupts_raised == 1

    def test_os_take_all(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        ni.deliver(msg(privileged=True))
        assert len(domain.os_take_all()) == 1
        assert domain.store.os_messages == []


class TestReservedPin:
    """PIN 0 is the no-process sentinel; no tenant may ever hold it."""

    def test_check_pin_rejects_zero(self):
        with pytest.raises(ProtectionError):
            check_pin(RESERVED_PIN)

    def test_check_pin_rejects_negative(self):
        with pytest.raises(ProtectionError):
            check_pin(-3)

    def test_check_pin_passes_positive(self):
        assert check_pin(1) == 1

    def test_activate_rejects_sentinel(self):
        domain = ProtectionDomain(NetworkInterface())
        with pytest.raises(ProtectionError):
            domain.activate(0)

    def test_start_slice_rejects_sentinel(self):
        sched = GangScheduler([NetworkInterface()])
        with pytest.raises(ProtectionError):
            sched.start_slice(0)

    def test_deactivate_parks_at_sentinel(self):
        ni = NetworkInterface()
        domain = ProtectionDomain(ni)
        domain.activate(4)
        domain.deactivate()
        assert ni.control["active_pin"] == RESERVED_PIN
        assert not ni.control.pin_checking


class TestGangScheduler:
    def test_needs_interfaces(self):
        with pytest.raises(ProtectionError):
            GangScheduler([])

    def test_slice_lifecycle(self):
        nis = [NetworkInterface(node=n) for n in range(2)]
        sched = GangScheduler(nis)
        sched.start_slice(1)
        nis[0].deliver(msg(pin=1, tag=5))
        nis[0].deliver(msg(pin=1, tag=6))
        sched.end_slice()
        # Network state is drained: nothing visible to the next process.
        assert not nis[0].msg_valid
        assert nis[0].input_queue.is_empty
        assert sched.saved_message_count(1) == 2

    def test_restore_on_next_slice(self):
        nis = [NetworkInterface(node=n) for n in range(1)]
        sched = GangScheduler(nis)
        sched.start_slice(1)
        nis[0].deliver(msg(pin=1, tag=5))
        sched.end_slice()
        sched.start_slice(2)
        assert not nis[0].msg_valid
        sched.end_slice()
        sched.start_slice(1)
        assert nis[0].msg_valid
        assert nis[0].read_input(1) == 5

    def test_double_start_rejected(self):
        sched = GangScheduler([NetworkInterface()])
        sched.start_slice(1)
        with pytest.raises(ProtectionError):
            sched.start_slice(2)

    def test_end_without_start_rejected(self):
        sched = GangScheduler([NetworkInterface()])
        with pytest.raises(ProtectionError):
            sched.end_slice()

    def test_no_messages_lost_across_slices(self):
        nis = [NetworkInterface(node=0)]
        sched = GangScheduler(nis)
        sched.start_slice(1)
        tags = list(range(8))
        for tag in tags:
            nis[0].deliver(msg(pin=1, tag=tag))
        sched.end_slice()
        sched.start_slice(1)
        seen = []
        while nis[0].msg_valid:
            seen.append(nis[0].read_input(1))
            nis[0].next()
        assert seen == tags

    def test_start_slice_refiles_overflow_instead_of_raising(self):
        # Saved state larger than the room left at restore time must be
        # refiled in order, not raised on or dropped.
        ni = NetworkInterface(input_capacity=2)
        sched = GangScheduler([ni])
        sched.start_slice(1)
        for tag in range(3):  # input registers + the 2 queue slots
            ni.deliver(msg(pin=1, tag=tag))
        sched.end_slice()
        assert sched.saved_message_count(1) == 3
        # Fresh traffic occupies most of the interface before the
        # process resumes, so only one saved message fits.
        ni.deliver(msg(pin=1, tag=10))
        ni.deliver(msg(pin=1, tag=11))
        sched.start_slice(1)
        assert sched.saved_message_count(1) == 2

    def test_refill_delivers_refiled_tail_in_order(self):
        ni = NetworkInterface(input_capacity=2)
        sched = GangScheduler([ni])
        sched.start_slice(1)
        for tag in range(3):
            ni.deliver(msg(pin=1, tag=tag))
        sched.end_slice()
        ni.deliver(msg(pin=1, tag=10))
        ni.deliver(msg(pin=1, tag=11))
        sched.start_slice(1)
        seen = []
        while sched.saved_message_count(1) or ni.msg_valid:
            if ni.msg_valid:
                seen.append(ni.read_input(1))
                ni.next()
            sched.refill()
        assert seen == [10, 11, 0, 1, 2]

    def test_refill_requires_running_slice(self):
        sched = GangScheduler([NetworkInterface()])
        with pytest.raises(ProtectionError):
            sched.refill()

    def test_refill_with_nothing_refiled_is_noop(self):
        sched = GangScheduler([NetworkInterface()])
        sched.start_slice(1)
        assert sched.refill() == 0

    def test_restore_stops_at_a_message_the_interface_would_divert(self):
        # With the tenant's cap lowered from 3 to 1 between slices, the
        # saved messages past the cap stay saved in order instead of
        # being diverted out of the process's state; refill moves them
        # in as the cap allows.
        ni = NetworkInterface()
        ni.set_tenant_cap(3)
        sched = GangScheduler([ni])
        sched.start_slice(1)
        for tag in range(4):  # input registers + three queued, the cap
            assert ni.deliver(msg(pin=1, tag=tag))
        sched.end_slice()
        assert sched.saved_message_count(1) == 4
        ni.set_tenant_cap(1)
        sched.start_slice(1)
        assert ni.privileged_store == []
        assert sched.saved_message_count(1) == 2
        seen = []
        while ni.msg_valid:
            seen.append(ni.read_input(1))
            ni.next()
            sched.refill()
        assert seen == [0, 1, 2, 3]
        assert ni.privileged_store == []
        assert sched.saved_message_count(1) == 0
