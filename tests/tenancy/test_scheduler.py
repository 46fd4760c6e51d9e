"""Tests for the receive-side tenant scheduling policies."""

import pytest

from repro.errors import ProtectionError
from repro.nic.dispatch import decode_table_address
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message
from repro.sim import SimKernel
from repro.tenancy.scheduler import (
    SCHEDULER_NAMES,
    GangTenantScheduler,
    QuantumScheduler,
    RoundRobinScheduler,
    SwitchCosts,
    make_scheduler,
)


def msg(pin=1, tag=0) -> Message:
    return Message(2, (0, tag, 0, 0, 0), pin=pin)


def make_ifaces(n=1, capacity=16):
    return [
        NetworkInterface(node=node, input_capacity=capacity)
        for node in range(n)
    ]


class TestConstruction:
    def test_pin_zero_rejected(self):
        with pytest.raises(ProtectionError):
            make_scheduler("round-robin", make_ifaces(), [0])

    def test_duplicate_pins_rejected(self):
        with pytest.raises(ProtectionError):
            make_scheduler("quantum", make_ifaces(), [1, 1])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ProtectionError):
            make_scheduler("bogus", make_ifaces(), [1])

    def test_needs_interfaces_and_tenants(self):
        with pytest.raises(ProtectionError):
            RoundRobinScheduler([], [1])
        with pytest.raises(ProtectionError):
            RoundRobinScheduler(make_ifaces(), [])

    def test_all_names_buildable(self):
        for name in SCHEDULER_NAMES:
            scheduler = make_scheduler(name, make_ifaces(2), [1, 2, 3])
            assert scheduler.name == name

    def test_attaches_to_every_interface(self):
        nis = make_ifaces(3)
        scheduler = make_scheduler("round-robin", nis, [1], tenant_cap=4)
        for ni in nis:
            assert ni.tenant_scheduler is scheduler
            assert ni.tenant_cap == 4


class TestDivertAccounting:
    def test_pin_divert_files_and_charges(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(
            nis, [1, 2], costs=SwitchCosts(switch_cycles=2, divert_cycles=4)
        )
        scheduler.bind(SimKernel())
        # Initial state diverts everything: no tenant resident, checking on.
        assert nis[0].deliver(msg(pin=2, tag=7))
        assert not nis[0].msg_valid
        assert scheduler.diverted_by_reason == {"pin": 1}
        assert scheduler.states[0].store.pending_count(2) == 1
        # The OS interrupt steals divert_cycles from the dispatch loop.
        assert scheduler.stalled(0, 0)
        assert scheduler.stalled(0, 3)
        assert not scheduler.stalled(0, 4)

    @pytest.mark.parametrize("policy", ["round-robin", "quantum"])
    def test_pin_divert_acknowledges_its_exception(self, policy):
        # The OS handling a PIN-mismatch divert acknowledges the exception
        # it services, so the resident tenant's next message dispatches to
        # its own handler instead of exception handler 0001.
        nis = make_ifaces()
        ni = nis[0]
        ni.ip_base = 0x40_0000
        scheduler = make_scheduler(policy, nis, [1, 2])
        scheduler.bind(SimKernel())
        ni.control["active_pin"] = 1  # pin 1 resident
        assert ni.deliver(msg(pin=2))
        assert scheduler.diverted_by_reason == {"pin": 1}
        assert not ni.status.has_exception
        ni.deliver(msg(pin=1))
        assert decode_table_address(ni.msg_ip)[0] == 2

    def test_charges_accumulate_per_divert(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(
            nis, [1], costs=SwitchCosts(switch_cycles=2, divert_cycles=4)
        )
        scheduler.bind(SimKernel())
        for tag in range(3):
            nis[0].deliver(msg(pin=1, tag=tag))
        assert scheduler.stalled(0, 11)
        assert not scheduler.stalled(0, 12)

    def test_cap_divert_not_charged(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(
            nis, [1], tenant_cap=1,
            costs=SwitchCosts(switch_cycles=2, divert_cycles=4),
        )
        scheduler.bind(SimKernel())
        ni = nis[0]
        ni.control["active_pin"] = 1  # pin 1 resident
        ni.deliver(msg(pin=1, tag=0))  # input registers
        ni.deliver(msg(pin=1, tag=1))  # queue: occupancy 1 == cap
        assert ni.deliver(msg(pin=1, tag=2))  # cap-diverted to the store
        assert scheduler.diverted_by_reason == {"cap": 1}
        # NIC-layer accounting interrupts nobody.
        assert not scheduler.stalled(0, 0)

    def test_unbound_scheduler_files_without_charging(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(nis, [1])
        nis[0].deliver(msg(pin=1))
        assert scheduler.states[0].store.pending_count(1) == 1
        assert not scheduler.stalled(0, 0)


class TestRoundRobin:
    def test_switch_charges_and_redelivers_in_order(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(
            nis, [1, 2], quantum=10,
            costs=SwitchCosts(switch_cycles=3, divert_cycles=0),
        )
        scheduler.bind(SimKernel())
        ni = nis[0]
        for tag in range(3):
            ni.deliver(msg(pin=2, tag=tag))
        scheduler.tick(1)
        assert ni.control["active_pin"] == 2
        assert scheduler.switches == 1
        assert scheduler.redelivered == 3
        # Switch window: charged from the rotation cycle.
        assert scheduler.stalled(0, 3)
        assert not scheduler.stalled(0, 4)
        # FIFO redelivery: oldest message reaches the input registers.
        assert ni.msg_valid
        assert ni.read_input(1) == 0
        ni.next()
        assert ni.read_input(1) == 1

    def test_rotation_is_work_conserving(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(nis, [1, 2, 3], quantum=10)
        scheduler.bind(SimKernel())
        scheduler.tick(1)
        # No stored work anywhere: no switch, no cost.
        assert scheduler.switches == 0
        assert not scheduler.stalled(0, 1)

    def test_rotation_skips_idle_tenants(self):
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(
            nis, [1, 2, 3], quantum=10, costs=SwitchCosts(0, 0)
        )
        scheduler.bind(SimKernel())
        nis[0].deliver(msg(pin=3))
        scheduler.tick(1)
        assert nis[0].control["active_pin"] == 3

    def test_redeliver_keeps_a_switched_out_tenant_stored(self):
        # Redelivery stops where the interface would divert: messages of
        # a tenant that is not resident stay stored, and nothing is
        # diverted, charged or counted as redelivered again.
        nis = make_ifaces()
        scheduler = RoundRobinScheduler(nis, [5, 7])
        scheduler.bind(SimKernel())
        state = scheduler.states[0]
        for tag in range(2):
            nis[0].deliver(msg(pin=7, tag=tag))
        scheduler._switch_to(state, 5, 1)
        before = (
            scheduler.redelivered,
            dict(scheduler.diverted_by_reason),
            state.busy_until,
        )
        assert scheduler._redeliver(state, 7) == 0
        assert before == (
            scheduler.redelivered,
            scheduler.diverted_by_reason,
            state.busy_until,
        )
        assert state.store.pending_count(7) == 2

    def test_invalid_quantum(self):
        with pytest.raises(ProtectionError):
            RoundRobinScheduler(make_ifaces(), [1], quantum=0)


class TestQuantum:
    def test_picks_deepest_backlog(self):
        nis = make_ifaces()
        scheduler = QuantumScheduler(
            nis, [1, 2, 3], quantum=10, costs=SwitchCosts(0, 0)
        )
        scheduler.bind(SimKernel())
        ni = nis[0]
        ni.deliver(msg(pin=2, tag=0))
        for tag in range(2):
            ni.deliver(msg(pin=3, tag=tag))
        scheduler.tick(1)
        assert ni.control["active_pin"] == 3

    def test_preempts_idle_resident_before_quantum(self):
        nis = make_ifaces()
        scheduler = QuantumScheduler(
            nis, [1, 2, 3], quantum=1000, costs=SwitchCosts(0, 0)
        )
        scheduler.bind(SimKernel())
        ni = nis[0]
        for tag in range(2):
            ni.deliver(msg(pin=3, tag=tag))
        ni.deliver(msg(pin=2, tag=9))
        scheduler.tick(1)
        assert ni.control["active_pin"] == 3
        while ni.msg_valid:  # resident drains its redelivered work
            ni.next()
        scheduler.tick(2)  # quantum far from expired, but 3 went idle
        assert ni.control["active_pin"] == 2

    def test_busy_resident_keeps_slot_inside_quantum(self):
        nis = make_ifaces()
        scheduler = QuantumScheduler(
            nis, [1, 2], quantum=1000, costs=SwitchCosts(0, 0)
        )
        scheduler.bind(SimKernel())
        ni = nis[0]
        ni.deliver(msg(pin=1, tag=0))
        scheduler.tick(1)
        assert ni.control["active_pin"] == 1
        ni2_msg = msg(pin=2, tag=1)
        ni.deliver(ni2_msg)  # diverts: pin 2 now waits
        scheduler.tick(2)
        # Resident still holds its message and the quantum is open.
        assert ni.control["active_pin"] == 1


class TestGang:
    def make(self, n_nodes=2, **kwargs):
        nis = [NetworkInterface(node=n) for n in range(n_nodes)]
        kwargs.setdefault("costs", SwitchCosts(switch_cycles=2, divert_cycles=0))
        scheduler = GangTenantScheduler(nis, [1, 2], slice_cycles=20, **kwargs)
        scheduler.bind(SimKernel())
        return nis, scheduler

    def test_pin_checking_off(self):
        nis, _ = self.make()
        assert all(ni.control["pin_check"] == 0 for ni in nis)

    def test_idle_without_work(self):
        _, scheduler = self.make()
        scheduler.tick(0)
        assert scheduler.phase == scheduler.IDLE
        assert scheduler.injectable({1: 1, 2: 1}) == ()

    def test_slice_gates_injection_to_owner(self):
        nis, scheduler = self.make()
        backlog = {1: 5}
        scheduler.set_backlog_fn(lambda pin: backlog.get(pin, 0))
        scheduler.tick(0)
        assert scheduler.phase == scheduler.SWITCHING
        assert scheduler.stalled(0, 1)  # global switch window
        scheduler.tick(1)
        scheduler.tick(2)
        assert scheduler.phase == scheduler.ACTIVE
        assert scheduler.active_pin == 1
        assert scheduler.may_inject(1)
        assert not scheduler.may_inject(2)
        assert scheduler.injectable({1: 0, 2: 0}) == (1,)
        assert scheduler.injectable({2: 0}) == ()

    def test_slice_end_saves_undispatched_state(self):
        nis, scheduler = self.make()
        backlog = {1: 1}
        scheduler.set_backlog_fn(lambda pin: backlog.get(pin, 0))
        scheduler.tick(0)
        scheduler.tick(2)
        assert scheduler.phase == scheduler.ACTIVE
        backlog.clear()
        nis[0].deliver(msg(pin=1, tag=9))  # arrives, never dispatched
        scheduler.tick(22)  # slice_cycles elapsed
        assert scheduler.phase == scheduler.DRAINING
        scheduler.tick(23)  # fabric-less: network trivially quiet
        # end_slice saved the leftover message, and the work-conserving
        # rotation immediately grants pin 1 another slice.
        assert scheduler.gang.saved_message_count(1) == 1
        assert scheduler.phase == scheduler.SWITCHING

    def test_quiet_slice_ends_early(self):
        nis, scheduler = self.make()
        backlog = {1: 1}
        scheduler.set_backlog_fn(lambda pin: backlog.get(pin, 0))
        scheduler.tick(0)
        scheduler.tick(2)
        backlog.clear()  # nothing injected, interfaces and network quiet
        scheduler.tick(2 + scheduler.min_slice)
        assert scheduler.phase == scheduler.DRAINING

    def test_invalid_slice_length(self):
        with pytest.raises(ProtectionError):
            GangTenantScheduler(make_ifaces(), [1], slice_cycles=0)
