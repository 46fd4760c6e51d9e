"""Receive-side tenant scheduling policies (Section 2.1.3 at scale).

The paper sketches two multi-user strategies — gang scheduling with the
network drained between slices (the CM-5's) and independent switching
with PIN-checked diversion — and exercises them with two processes.
This module turns both into pluggable receive-side schedulers able to
multiplex *thousands* of protection domains over the shared input
queues, plus a third, quantum-based preemptive policy, so the
evaluation can compare their QoS under heavy-tailed load.

Every policy:

* implements the :class:`~repro.nic.interface.TenantSchedulerLike`
  protocol, so each interface hands it every diverted delivery
  (privileged, PIN-mismatch, or per-tenant occupancy-cap overflow) with
  the divert reason;
* runs as a :class:`~repro.sim.component.SimComponent` on the shared
  :class:`~repro.sim.kernel.SimKernel`, making its scheduling decisions
  in simulated time;
* charges a modelled context-switch cost in cycles
  (:class:`SwitchCosts`): a node whose resident tenant just changed
  dispatches nothing until the switch window closes;
* owns redelivery: stored messages re-enter the input queue through the
  ordinary :meth:`~repro.nic.interface.NetworkInterface.deliver`, in
  arrival order, spilling back to the store when the queue (or the
  tenant's occupancy cap) blocks.

The three policies:

* :class:`GangTenantScheduler` — synchronous slices over all nodes with
  the network drained between slices, refactored around the
  :class:`~repro.nic.protection.GangScheduler` drain/restore engine;
* :class:`RoundRobinScheduler` — independent per-node switching on
  fixed quantum boundaries, rotating among tenants with stored work;
* :class:`QuantumScheduler` — quantum-based and preemptive: a node
  abandons an idle tenant early and always picks the waiting tenant
  with the deepest backlog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ProtectionError
from repro.nic.interface import DIVERT_CAP, DIVERT_PIN, NetworkInterface
from repro.nic.messages import Message
from repro.nic.protection import GangScheduler, PrivilegedStore, check_pin, restore
from repro.sim.component import SimComponent

SCHEDULER_NAMES = ("gang", "round-robin", "quantum")
"""The policy names :func:`make_scheduler` (and the eval grid) accept."""

CHECK_INTERVAL = 4
"""Cycles between :class:`QuantumScheduler`'s preemption checks."""


@dataclass(frozen=True)
class SwitchCosts:
    """Modelled context-switch and divert-handling pricing, in cycles.

    ``switch_cycles`` is charged every time a node's resident tenant
    changes: the node dispatches nothing while the window is open,
    modelling register/TLB state save-restore plus the CONTROL-register
    rewrite.  Gang scheduling charges it globally per slice boundary;
    the independent policies charge it per node per switch.

    ``divert_cycles`` is charged per privileged or PIN-mismatch divert:
    Section 2.1.3 treats a mismatched-PIN message as privileged, so the
    OS takes an interrupt and files it — processor time stolen from the
    node's dispatch loop.  This is the cost gang scheduling exists to
    avoid (with the network drained between slices, inactive-process
    messages never arrive), and under independent switching it is what
    lets one flooding tenant steal a hot node's cycles from the resident
    victim.  Occupancy-cap diverts are *not* charged: the cap is the
    NIC-layer accounting mechanism, and its refile is handled by the
    interface hardware without interrupting the processor.
    """

    switch_cycles: int = 8
    divert_cycles: int = 4


class _NodeState:
    """One node's tenancy state under an independent policy."""

    __slots__ = (
        "index",
        "interface",
        "store",
        "active_pin",
        "busy_until",
        "slice_start",
        "rotation",
    )

    def __init__(self, index: int, interface: NetworkInterface) -> None:
        self.index = index
        self.interface = interface
        self.store = PrivilegedStore()
        self.active_pin = 0  # RESERVED_PIN: no tenant resident yet
        self.busy_until = 0
        self.slice_start = 0
        self.rotation = 0


class TenantPolicy(SimComponent):
    """Shared machinery: stores, switch accounting, ordered redelivery.

    Subclasses implement :meth:`tick` (the scheduling decision) and may
    override :meth:`injectable` (gang gates injection; the independent
    policies accept traffic for any tenant at any time).

    Scheduling decisions never probe the whole tenant list: a node's
    candidates are its store's ``by_pin`` keys filtered through the
    PIN→position map ``_position``, and cross-node questions read
    ``_stored``, the per-PIN stored count over all nodes (a key exactly
    while positive), which :meth:`on_divert`, :meth:`_redeliver` and
    :meth:`_park_resident` — the only code that changes a store — keep.
    """

    name = "tenancy"

    def __init__(
        self,
        interfaces: Sequence[NetworkInterface],
        tenants: Sequence[int],
        costs: Optional[SwitchCosts] = None,
        tenant_cap: Optional[int] = None,
    ) -> None:
        if not interfaces:
            raise ProtectionError("tenant policy needs at least one interface")
        if not tenants:
            raise ProtectionError("tenant policy needs at least one tenant")
        self.tenants: List[int] = [check_pin(pin) for pin in tenants]
        self._position: Dict[int, int] = {
            pin: index for index, pin in enumerate(self.tenants)
        }
        if len(self._position) != len(self.tenants):
            raise ProtectionError("tenant PINs must be unique")
        self._stored: Dict[int, int] = {}
        self.costs = costs or SwitchCosts()
        self.states: List[_NodeState] = [
            _NodeState(index, interface)
            for index, interface in enumerate(interfaces)
        ]
        self._by_node: Dict[int, _NodeState] = {
            state.interface.node: state for state in self.states
        }
        self.diverted_by_reason: Dict[str, int] = {}
        self.switches = 0
        self.redelivered = 0
        self.handle = None
        self.kernel = None  # set by bind(); divert charges need the clock
        for state in self.states:
            state.interface.attach_tenant_scheduler(self)
            state.interface.input_queue.attach_tenant_stats()
            if tenant_cap is not None:
                state.interface.set_tenant_cap(tenant_cap)

    # ------------------------------------------------------------------
    # TenantSchedulerLike protocol.
    # ------------------------------------------------------------------

    def on_divert(
        self, interface: NetworkInterface, message: Message, reason: str
    ) -> None:
        """File one diverted delivery, charging the OS handling cost.

        Section 2.1.3: a privileged or PIN-mismatched message interrupts
        the processor, which files it into privileged state —
        ``divert_cycles`` of the node's time stolen from its dispatch
        loop.  The charge accumulates (each divert extends the busy
        window), so a flood of inactive-tenant messages can saturate a
        node's processor: the receive-livelock the gang policy's drained
        network avoids.  The handler acknowledges the PIN-mismatch
        exception it services, so STATUS does not keep ``MsgIp`` on the
        exception handler afterwards.  Cap diverts are filed by the
        NIC-layer accounting and charge nothing.
        """
        self.diverted_by_reason[reason] = (
            self.diverted_by_reason.get(reason, 0) + 1
        )
        if reason == DIVERT_PIN:
            interface.status.acknowledge("exc_pin_mismatch")
        state = self._by_node[interface.node]
        state.store.file(message)
        if not message.privileged:
            self._count_stored(message.pin, 1)
        if (
            reason != DIVERT_CAP
            and self.kernel is not None
            and self.costs.divert_cycles
        ):
            state.busy_until = (
                max(state.busy_until, self.kernel.cycle)
                + self.costs.divert_cycles
            )

    # ------------------------------------------------------------------
    # The contract the workload layer consumes.
    # ------------------------------------------------------------------

    def bind(self, kernel) -> object:
        """Register on ``kernel``; returns (and keeps) the SimHandle."""
        self.kernel = kernel
        self.handle = kernel.register(self)
        return self.handle

    def stalled(self, node: int, cycle: int) -> bool:
        """Whether ``node`` is inside a context-switch window."""
        return cycle < self._by_node[node].busy_until

    def injectable(self, pins):
        """The subset of ``pins`` allowed to inject right now.

        The workload pump calls this with its set of backlogged tenants;
        independent policies admit everyone (send-side scheduling is out
        of scope), gang admits only the slice owner — returning the
        subset directly keeps the pump from scanning thousands of gated
        tenants every retry tick.
        """
        return pins

    def stored_messages(self) -> int:
        """User messages parked across every node's store."""
        return sum(self._stored.values())

    # ------------------------------------------------------------------
    # Internals shared by the concrete policies.
    # ------------------------------------------------------------------

    def _count_stored(self, pin: int, delta: int) -> None:
        """Apply a change to ``pin``'s stored-message count over all nodes."""
        count = self._stored.get(pin, 0) + delta
        if count:
            self._stored[pin] = count
        else:
            self._stored.pop(pin, None)

    def _waiting(self, state: _NodeState) -> List[int]:
        """Tenants other than the resident one with stored work at
        ``state``'s node; PINs outside the tenant list never qualify."""
        position = self._position
        active = state.active_pin
        return [
            pin for pin in state.store.by_pin if pin != active and pin in position
        ]

    def _redeliver(self, state: _NodeState, pin: int) -> int:
        """Move stored messages for ``pin`` back into the input queue.

        :func:`~repro.nic.protection.restore` stops at the first message
        the interface would divert (``pin`` not resident, or at its
        occupancy cap) or refuses (full queue); the untouched tail is
        refiled in order, so redelivery is always FIFO per tenant.
        """
        if not state.store.pending_count(pin):
            return 0
        stored = state.store.take_for(pin)
        delivered = restore(state.interface, stored)
        state.store.file_front(pin, stored[delivered:])
        self._count_stored(pin, -delivered)
        self.redelivered += delivered
        return delivered

    def _park_resident(self, state: _NodeState) -> None:
        """Drain the outgoing tenant's unserviced input back to the store.

        The input registers and queue only ever hold the resident
        tenant's messages, so a switch must park them — ahead of any
        cap-diverted messages already stored, preserving arrival order.
        """
        drained = state.interface.park()
        if drained:
            # One switch parks one tenant's state: every drained message
            # carries the resident PIN.
            state.store.file_front(drained[0].pin, drained)
            self._count_stored(drained[0].pin, len(drained))

    def _switch_to(self, state: _NodeState, pin: int, cycle: int) -> None:
        """Make ``pin`` resident on ``state``'s node, charging the cost."""
        if pin == state.active_pin:
            return
        self._park_resident(state)
        state.active_pin = pin
        state.slice_start = cycle
        ni = state.interface
        ni.control["active_pin"] = pin
        ni.control["pin_check"] = 1
        state.busy_until = max(state.busy_until, cycle) + self.costs.switch_cycles
        self.switches += 1
        self._redeliver(state, pin)

    def _divert_all(self) -> None:
        """Initial state for independent policies: no tenant resident,
        PIN checking on, so every arrival diverts to the store."""
        for state in self.states:
            state.interface.control["active_pin"] = 0
            state.interface.control["pin_check"] = 1


class RoundRobinScheduler(TenantPolicy):
    """Independent per-node round-robin on fixed quantum boundaries.

    Every ``quantum`` cycles each node advances — independently — to the
    next tenant (in PIN-list order, cyclically from its rotation
    pointer) that has stored messages at that node.  The rotation is
    work-conserving: with no stored work anywhere the node keeps its
    resident tenant and pays no switch cost.
    """

    name = "round-robin"

    def __init__(
        self,
        interfaces: Sequence[NetworkInterface],
        tenants: Sequence[int],
        quantum: int = 50,
        costs: Optional[SwitchCosts] = None,
        tenant_cap: Optional[int] = None,
    ) -> None:
        super().__init__(interfaces, tenants, costs, tenant_cap)
        if quantum <= 0:
            raise ProtectionError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self._divert_all()

    def bind(self, kernel) -> object:
        handle = super().bind(kernel)
        # First rotation right away, then on quantum boundaries.
        handle.wake_at(1)
        return handle

    def tick(self, cycle: int) -> None:
        for state in self.states:
            self._rotate(state, cycle)
        self.handle.wake_at(cycle + self.quantum)

    def _rotate(self, state: _NodeState, cycle: int) -> None:
        waiting = self._waiting(state)
        if waiting:
            # The first waiting tenant in PIN-list order, cyclically
            # from the rotation pointer.
            position = self._position
            count = len(position)
            pin = min(
                waiting, key=lambda pin: (position[pin] - state.rotation) % count
            )
            state.rotation = (position[pin] + 1) % count
            self._switch_to(state, pin, cycle)
            return
        # Nobody else is waiting: keep the resident tenant and let any
        # of its cap-diverted overflow back into the freed queue slots.
        if state.active_pin:
            self._redeliver(state, state.active_pin)


class QuantumScheduler(TenantPolicy):
    """Quantum-based preemptive switching, deepest-backlog first.

    Like :class:`RoundRobinScheduler` each node switches independently
    and a resident tenant is never kept past ``quantum`` cycles while
    others wait — but the policy also *preempts* a tenant that has gone
    idle (nothing resident in the input registers or queue, nothing
    stored) as soon as another tenant has stored work, and it always
    picks the waiting tenant with the deepest backlog at that node
    (ties break toward the lowest PIN, keeping runs deterministic).
    """

    name = "quantum"

    def __init__(
        self,
        interfaces: Sequence[NetworkInterface],
        tenants: Sequence[int],
        quantum: int = 50,
        costs: Optional[SwitchCosts] = None,
        tenant_cap: Optional[int] = None,
    ) -> None:
        super().__init__(interfaces, tenants, costs, tenant_cap)
        if quantum <= 0:
            raise ProtectionError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self._divert_all()

    def bind(self, kernel) -> object:
        handle = super().bind(kernel)
        handle.wake_at(1)
        return handle

    def tick(self, cycle: int) -> None:
        for state in self.states:
            self._consider(state, cycle)
        self.handle.wake_at(cycle + CHECK_INTERVAL)

    def _resident_busy(self, state: _NodeState) -> bool:
        """Whether the resident tenant still has work at this node."""
        pin = state.active_pin
        if not pin:
            return False
        ni = state.interface
        current = ni.current_message
        if current is not None and current.pin == pin:
            return True
        if ni.input_queue.tenant_occupancy(pin):
            return True
        return state.store.pending_count(pin) > 0

    def _consider(self, state: _NodeState, cycle: int) -> None:
        waiting = self._waiting(state)
        if not waiting:
            if state.active_pin:
                self._redeliver(state, state.active_pin)
            return
        expired = cycle - state.slice_start >= self.quantum
        if expired or not self._resident_busy(state):
            deepest = max(
                waiting, key=lambda pin: (state.store.pending_count(pin), -pin)
            )
            self._switch_to(state, deepest, cycle)


class GangTenantScheduler(TenantPolicy):
    """Synchronous gang slices with the network drained between them.

    One tenant at a time owns *every* node (the CM-5 strategy the paper
    cites): its backlog injects, its messages are dispatched, and at the
    slice boundary injection stops, the fabric drains, and all
    remaining interface state is saved via the
    :class:`~repro.nic.protection.GangScheduler` engine before the next
    tenant's saved state is restored.  PIN checking stays off — drained
    networks cannot deliver a stale tenant's message.

    The slice rotation is work-conserving: only tenants with pending
    work (workload backlog via :meth:`set_backlog_fn`, saved network
    state, or cap-diverted store entries) receive slices, and a slice
    ends early once its tenant goes quiet for ``min_slice`` cycles'
    worth of inspection (the switch cost plus 4).  The context-switch cost is charged globally:
    no node dispatches during the switch window.
    """

    name = "gang"

    #: Phases of the slice state machine.
    IDLE = "idle"
    ACTIVE = "active"
    DRAINING = "draining"
    SWITCHING = "switching"

    def __init__(
        self,
        interfaces: Sequence[NetworkInterface],
        tenants: Sequence[int],
        slice_cycles: int = 80,
        costs: Optional[SwitchCosts] = None,
        tenant_cap: Optional[int] = None,
        fabric=None,
    ) -> None:
        super().__init__(interfaces, tenants, costs, tenant_cap)
        if slice_cycles <= 0:
            raise ProtectionError(
                f"slice length must be positive, got {slice_cycles}"
            )
        self.gang = GangScheduler([state.interface for state in self.states])
        self.fabric = fabric
        self.slice_cycles = slice_cycles
        self.min_slice = self.costs.switch_cycles + 4
        self.backlog_fn: Callable[[int], int] = lambda pin: 0
        self.phase = self.IDLE
        self.active_pin: Optional[int] = None
        self._pending_pin: Optional[int] = None
        self.rotation = 0
        self.slice_start = 0
        self.switch_done = 0
        for state in self.states:
            state.interface.control["pin_check"] = 0

    def set_backlog_fn(self, fn: Callable[[int], int]) -> None:
        """Install the workload's not-yet-injected-arrivals counter."""
        self.backlog_fn = fn

    # ------------------------------------------------------------------
    # Workload contract overrides: gang decisions are global.
    # ------------------------------------------------------------------

    def injectable(self, pins):
        if self.phase == self.ACTIVE and self.active_pin in pins:
            return (self.active_pin,)
        return ()

    def stalled(self, node: int, cycle: int) -> bool:
        # The slice switch stalls every node; cap-divert handling during
        # a tenant's own slice additionally stalls that node.
        return cycle < self.switch_done or cycle < self._by_node[node].busy_until

    # ------------------------------------------------------------------
    # The slice state machine.
    # ------------------------------------------------------------------

    def _has_work(self, pin: int) -> bool:
        return bool(
            self.backlog_fn(pin)
            or self.gang.saved_message_count(pin)
            or pin in self._stored
        )

    def _interfaces_quiet(self) -> bool:
        return all(
            state.interface.current_message is None
            and state.interface.input_queue.is_empty
            for state in self.states
        )

    def _network_quiet(self) -> bool:
        return self.fabric is None or self.fabric.pending() == 0

    def tick(self, cycle: int) -> None:
        if self.phase == self.SWITCHING:
            if cycle >= self.switch_done:
                self._begin_slice(cycle)
            return
        if self.phase == self.ACTIVE:
            pin = self.active_pin
            # Mid-slice refills: saved-state overflow refiled by
            # start_slice, and cap-diverted store entries.
            if self.gang.saved_message_count(pin):
                self.redelivered += self.gang.refill()
            if pin in self._stored:
                for state in self.states:
                    self._redeliver(state, pin)
            elapsed = cycle - self.slice_start
            quiet = (
                not self._has_work(pin)
                and self._interfaces_quiet()
                and self._network_quiet()
            )
            if elapsed >= self.slice_cycles or (
                elapsed >= self.min_slice and quiet
            ):
                self.phase = self.DRAINING
            return
        if self.phase == self.DRAINING:
            # Injection is gated off; wait for the fabric to empty, then
            # save the tenant's remaining interface state.
            if self._network_quiet():
                self.gang.end_slice()
                self.active_pin = None
                self.phase = self.IDLE
            else:
                return
        if self.phase == self.IDLE:
            self._choose_next(cycle)

    def _choose_next(self, cycle: int) -> None:
        tenants = self.tenants
        count = len(tenants)
        for offset in range(count):
            index = (self.rotation + offset) % count
            pin = tenants[index]
            if self._has_work(pin):
                self.rotation = (index + 1) % count
                self._pending_pin = pin
                self.phase = self.SWITCHING
                self.switch_done = cycle + self.costs.switch_cycles
                self.switches += 1
                return

    def _begin_slice(self, cycle: int) -> None:
        pin = self._pending_pin
        self._pending_pin = None
        self.gang.start_slice(pin)
        self.active_pin = pin
        self.slice_start = cycle
        for state in self.states:
            state.interface.control["active_pin"] = pin
            state.active_pin = pin
            # Cap-diverted overflow from the tenant's previous slices.
            self._redeliver(state, pin)
        self.phase = self.ACTIVE


def make_scheduler(
    name: str,
    interfaces: Sequence[NetworkInterface],
    tenants: Sequence[int],
    quantum: int = 50,
    slice_cycles: int = 80,
    costs: Optional[SwitchCosts] = None,
    tenant_cap: Optional[int] = None,
    fabric=None,
) -> TenantPolicy:
    """Build one of the three policies by name (:data:`SCHEDULER_NAMES`)."""
    if name == "gang":
        return GangTenantScheduler(
            interfaces,
            tenants,
            slice_cycles=slice_cycles,
            costs=costs,
            tenant_cap=tenant_cap,
            fabric=fabric,
        )
    if name == "round-robin":
        return RoundRobinScheduler(
            interfaces, tenants, quantum=quantum, costs=costs, tenant_cap=tenant_cap
        )
    if name == "quantum":
        return QuantumScheduler(
            interfaces, tenants, quantum=quantum, costs=costs, tenant_cap=tenant_cap
        )
    raise ProtectionError(
        f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}"
    )
