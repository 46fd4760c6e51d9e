"""The NIC-offloaded execution engine for collective handler programs.

:class:`NicHandlerEngine` plays the role of a handler processor sitting
*at the interface*: every cycle it services each node's interface by
reading ``MsgIp`` (the Figure 7 hardware), running the handler program
the register names, and issuing ``NEXT`` — the single-register-indirect-
jump dispatch loop of Section 2.2.3, with the handler body being a
collective step from :mod:`repro.collectives.programs`.  The TAM
scheduler and the node service loop are never involved: the processor's
only contributions are the initial :meth:`enter` call per node and
observing completion, which is the offload the eval measures.

Dispatch fidelity matters here.  The engine does not look at the
message's words to find its program — it reads the interface's ``MsgIp``
register, exactly as software would:

* under no boundary condition, ``MsgIp`` *is* the program IP (case 2)
  and the engine jumps straight to it;
* under ``iafull`` / ``oafull`` (which really happen under combining
  fan-in), ``MsgIp`` is a dispatch-table slot address.  The engine
  decodes it with :func:`repro.nic.dispatch.decode_table_address`,
  records which of the four handler versions the hardware selected, and
  then does what the table-resident type-0 boundary handler does: load
  word 1 and jump — the software completing the dispatch the hardware
  declined to shortcut.

Outgoing messages model ``oafull`` backpressure: a send that stalls
(output queue full) parks the message on a per-node pending deque and
retries next cycle, so a congested fabric really does push the engine
into the boundary-dispatch versions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.collectives.programs import (
    PROGRAMS,
    HandlerContext,
    enter as program_enter,
)
from repro.collectives.tree import CombiningTree
from repro.errors import CollectiveError, NetworkError
from repro.network.fabric import Fabric, _FabricComponent
from repro.network.topology import Topology
from repro.nic.dispatch import (
    HANDLER_ID_NO_MESSAGE,
    TABLE_BYTES,
    decode_table_address,
)
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import Message
from repro.nic.queues import DEFAULT_CAPACITY
from repro.obs.observer import Observer, observer_of
from repro.sim import SimComponent, SimKernel

#: Where the engine parks each interface's dispatch table; any
#: table-aligned address outside the program-IP region works.
NIC_IP_BASE = 0x0008_0000


class _EngineContext(HandlerContext):
    """A node's handler context bound to the engine's send queue."""

    def __init__(
        self,
        node: int,
        tree: CombiningTree,
        kind: str,
        op: str,
        pending: Deque[Message],
        engine: "NicHandlerEngine",
    ) -> None:
        super().__init__(node, tree, kind, op)
        self._pending = pending
        self._engine = engine

    def emit(self, message: Message) -> None:
        self._pending.append(message)
        observer = self._engine.observer
        if observer is not None:
            # The NI recomposes this message at flush time; _flush_sends
            # reports the send of this pending object (on_bind).
            observer.on_emit(self.node, message)


@dataclass
class DispatchStats:
    """How the engine's dispatches split across the Figure 7 cases."""

    case2: int = 0
    boundary: int = 0
    #: (iafull, oafull) -> count of table-slot selections under boundary.
    slots: Dict[tuple, int] = field(default_factory=dict)

    def record_slot(self, iafull: bool, oafull: bool) -> None:
        self.boundary += 1
        key = (iafull, oafull)
        self.slots[key] = self.slots.get(key, 0) + 1


class NicHandlerEngine(SimComponent):
    """Runs collective handler programs at every interface, NIC-side."""

    name = "nic-handlers"

    def __init__(
        self,
        fabric: Fabric,
        tree: CombiningTree,
        kind: str,
        op: str = "sum",
        ip_base: int = NIC_IP_BASE,
        step_cycles: int = 0,
    ) -> None:
        if fabric.topology.n_nodes != tree.n_nodes:
            raise CollectiveError(
                f"tree over {tree.n_nodes} nodes on a "
                f"{fabric.topology.n_nodes}-node fabric"
            )
        self.fabric = fabric
        self.tree = tree
        self.kind = kind
        #: Handler occupancy: cycles one step keeps the handler busy.
        #: ``0`` is an infinitely fast NIC (drain everything each cycle);
        #: ``k >= 2`` retires a step every ``k`` cycles — slower than the
        #: fabric's one-eject-per-cycle, so the input queue really builds
        #: toward ``iafull`` and the boundary dispatch versions fire.
        self.step_cycles = step_cycles
        self._busy: List[int] = [0] * tree.n_nodes
        self.dispatch_stats = DispatchStats()
        self.enters = 0
        self._pending: List[Deque[Message]] = [
            deque() for _ in range(tree.n_nodes)
        ]
        self.observer: Optional[Observer] = None
        self.contexts: List[_EngineContext] = [
            _EngineContext(node, tree, kind, op, self._pending[node], self)
            for node in range(tree.n_nodes)
        ]
        for interface in fabric.interfaces:
            interface.ip_base = ip_base

    def attach(self, observer: Observer) -> None:
        """Subscribe ``observer`` to the handler events, beside any earlier
        one (lineage links each emission to the messages it consumed)."""
        self.observer = observer_of(self.observer, observer)

    # ------------------------------------------------------------------
    # Processor-side surface: initiation and completion.
    # ------------------------------------------------------------------

    def enter(self, node: int, value=0) -> None:
        """The processor enters ``node`` into the collective."""
        self.enters += 1
        program_enter(self.contexts[node], value)

    @property
    def done(self) -> bool:
        return all(ctx.state.completed for ctx in self.contexts)

    @property
    def results(self) -> Dict[int, object]:
        return {
            ctx.node: ctx.state.result
            for ctx in self.contexts
            if ctx.state.completed
        }

    def events(self) -> Dict[str, int]:
        """Aggregate handler-event counts across all nodes."""
        totals = {"handled": 0, "sends": 0, "combines": 0}
        for ctx in self.contexts:
            for key, count in ctx.state.events.items():
                totals[key] += count
        return totals

    # ------------------------------------------------------------------
    # The per-cycle handler loop.
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        for node, interface in enumerate(self.fabric.interfaces):
            self._flush_sends(node, interface)
            self._service(node, interface)

    def _flush_sends(self, node: int, interface: NetworkInterface) -> None:
        pending = self._pending[node]
        while pending:
            message = pending[0]
            for index, word in enumerate(message.words):
                interface.write_output(index, word)
            if interface.send(message.mtype) is not SendResult.SENT:
                return  # oafull: retry next cycle, order preserved
            pending.popleft()
            if self.observer is not None:
                self.observer.on_bind(message)

    def _service(self, node: int, interface: NetworkInterface) -> None:
        ctx = self.contexts[node]
        if self._busy[node] > 0:
            self._busy[node] -= 1
            return
        while interface.msg_valid:
            ip = self._dispatch_ip(interface)
            program = PROGRAMS.get(ip)
            if program is None:
                raise CollectiveError(
                    f"node {node}: MsgIp {ip:#x} names no collective program"
                )
            message = interface.current_message
            ctx.state.events["handled"] += 1
            observer = self.observer
            if observer is not None:
                observer.on_handler_begin(node, message)
            program(ctx, message)
            if observer is not None:
                observer.on_handler_end(node)
            interface.next()
            if self.step_cycles:
                self._busy[node] = self.step_cycles - 1
                return

    def _dispatch_ip(self, interface: NetworkInterface) -> int:
        """Read MsgIp and, under a boundary condition, finish the dispatch
        the way the table-resident type-0 handler version would."""
        ip = interface.msg_ip
        if (ip & ~(TABLE_BYTES - 1)) != (
            interface.ip_base & ~(TABLE_BYTES - 1)
        ):
            self.dispatch_stats.case2 += 1
            return ip
        handler_id, iafull, oafull = decode_table_address(ip)
        if handler_id != HANDLER_ID_NO_MESSAGE:
            raise CollectiveError(
                f"node {interface.node}: boundary dispatch selected handler "
                f"{handler_id}, but collectives only send type 0"
            )
        self.dispatch_stats.record_slot(iafull, oafull)
        return interface.current_message.word(1)

    # ------------------------------------------------------------------
    # Kernel contract.
    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        return not any(self._pending) and not any(
            ni.msg_valid or ni.input_queue.depth
            for ni in self.fabric.interfaces
        )

    def snapshot(self):
        return {
            "pending_sends": sum(len(q) for q in self._pending),
            "msg_valid": sum(
                1 for ni in self.fabric.interfaces if ni.msg_valid
            ),
            "completed": sum(
                1 for ctx in self.contexts if ctx.state.completed
            ),
        }


@dataclass
class CollectiveRun:
    """Everything one collective execution produced, engine-agnostic."""

    kind: str
    variant: str  # "nic" or "proc"
    n_nodes: int
    results: Dict[int, object]
    cycles: int
    #: handled / sends / combines, summed over nodes.
    events: Dict[str, int]
    fabric_delivered: int
    fabric_hops: int
    fabric_cycles: int
    dispatch: Optional[DispatchStats] = None


def run_nic_collective(
    kind: str,
    topology: Topology,
    op: str = "sum",
    values: Optional[Sequence] = None,
    root: int = 0,
    arity: int = 2,
    link_buffer_depth: int = 4,
    serialization_cycles: int = 6,
    input_capacity: int = DEFAULT_CAPACITY,
    output_capacity: int = DEFAULT_CAPACITY,
    iq_threshold: Optional[int] = None,
    step_cycles: int = 0,
    max_cycles: int = 200_000,
    lineage=None,
) -> CollectiveRun:
    """Run one collective entirely NIC-side and return its record.

    ``values`` holds each node's contribution (reduce/allreduce) or the
    root's one-word payload (broadcast); it defaults to ``range(n_nodes)``.
    """
    n = topology.n_nodes
    if values is None:
        values = list(range(n))
    interfaces = [
        NetworkInterface(
            node=i,
            input_capacity=input_capacity,
            output_capacity=output_capacity,
        )
        for i in range(n)
    ]
    if iq_threshold is not None:
        for interface in interfaces:
            interface.control["iq_threshold"] = iq_threshold
    fabric = Fabric(
        topology,
        interfaces,
        link_buffer_depth=link_buffer_depth,
        serialization_cycles=serialization_cycles,
        lineage=lineage,
    )
    tree = CombiningTree(n, root=root, arity=arity)
    engine = NicHandlerEngine(fabric, tree, kind, op, step_cycles=step_cycles)
    if lineage is not None:
        engine.attach(lineage)
    kernel = SimKernel()
    kernel.register(_FabricComponent(fabric))
    kernel.register(engine)
    for node in range(n):
        engine.enter(node, values[node])
    result = kernel.run(
        max_cycles=max_cycles,
        stall_error=NetworkError,
        label=f"nic-{kind}",
    )
    if not engine.done:
        missing = [c.node for c in engine.contexts if not c.state.completed]
        raise CollectiveError(
            f"{kind} quiesced with {len(missing)} nodes incomplete: "
            f"{missing[:8]}"
        )
    return CollectiveRun(
        kind=kind,
        variant="nic",
        n_nodes=n,
        results=engine.results,
        cycles=result.cycles,
        events=engine.events(),
        fabric_delivered=fabric.stats.delivered,
        fabric_hops=fabric.stats.total_hops,
        fabric_cycles=fabric.stats.cycles,
        dispatch=engine.dispatch_stats,
    )
