"""High-level user API: build a machine, issue remote operations.

:class:`Cluster` assembles nodes over a topology and runs the whole thing
to quiescence: fabric cycles interleaved with node service loops.  On top
of that it offers the message-passing operations of the paper's protocol
as ordinary Python calls — remote read/write, I-structure read/write, and
thread invocation (Send) — each of which really travels through the
architectural interface, the routers, and the handlers.

This is the entry point the examples use::

    cluster = Cluster(Mesh2D(4, 4))
    cluster.node(5).memory.store(0x100, 42)
    value = cluster.remote_read(source=0, target=5, address=0x100)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import NetworkError
from repro.network.fabric import Fabric, _FabricComponent
from repro.network.topology import Mesh2D, Topology
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message, pack_destination
from repro.node.handlers import (
    build_pread_request,
    build_pwrite_request,
    build_read_request,
    build_send,
    build_write_request,
)
from repro.node.node import Node
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer
from repro.sim import SimComponent, SimKernel


class _NodeComponent(SimComponent):
    """One node's poll/dispatch/handle loop as a kernel component."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.name = f"node{node.node_id}"

    def tick(self, cycle: int) -> None:
        self.node.service()

    def quiescent(self) -> bool:
        return self.node.idle and not self.node.interface.status.has_exception

    def snapshot(self):
        interface = self.node.interface
        return {
            "input_queue": interface.input_queue.depth,
            "output_queue": interface.output_queue.depth,
            "msg_valid": interface.msg_valid,
        }


@dataclass
class RemoteValue:
    """A pending reply: filled in when the reply message arrives.

    The thread-identity words of the request (FP/IP) name the inlet that
    fills this in — the software side of the remote-read protocol of
    Section 2.1.4.
    """

    ready: bool = False
    value: int = 0

    def get(self) -> int:
        if not self.ready:
            raise NetworkError("remote value not yet delivered")
        return self.value


class Cluster:
    """A whole machine: nodes, fabric, and a quiescence driver."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        link_buffer_depth: int = 4,
        serialization_cycles: int = 6,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRecorder] = None,
        input_capacity: Optional[int] = None,
        output_capacity: Optional[int] = None,
    ) -> None:
        self.topology = topology or Mesh2D(2, 2)
        # Queue depths default to the interface's own (None); explicit
        # values size every node's queues, e.g. for tenancy studies that
        # want shallow input queues so per-tenant caps actually bind.
        nic_kwargs = {}
        if input_capacity is not None:
            nic_kwargs["input_capacity"] = input_capacity
        if output_capacity is not None:
            nic_kwargs["output_capacity"] = output_capacity
        self.nodes: List[Node] = [
            Node(
                node_id,
                interface=(
                    NetworkInterface(node=node_id, **nic_kwargs)
                    if nic_kwargs
                    else None
                ),
            )
            for node_id in range(self.topology.n_nodes)
        ]
        self.fabric = Fabric(
            self.topology,
            [node.interface for node in self.nodes],
            link_buffer_depth=link_buffer_depth,
            serialization_cycles=serialization_cycles,
            tracer=tracer,
            metrics=metrics,
        )
        for node in self.nodes:
            node.set_drain_hook(self.fabric.step)
        # One kernel for the whole machine, registered in service order:
        # the fabric moves messages first, then every node drains what
        # arrived — the ordering guarantee the kernel pins.
        self._kernel = SimKernel()
        self._kernel.register(_FabricComponent(self.fabric))
        for node in self.nodes:
            self._kernel.register(_NodeComponent(node))

    def node(self, node_id: int) -> Node:
        self.topology.check_node(node_id)
        return self.nodes[node_id]

    @property
    def kernel(self) -> SimKernel:
        """The cluster's shared simulation kernel.  A component
        registered on it ticks after the fabric and the nodes."""
        return self._kernel

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 100_000) -> int:
        """Advance fabric and nodes until the whole machine is quiescent.

        Runs on the shared :class:`~repro.sim.kernel.SimKernel` and
        returns the number of kernel cycles consumed.  One cycle is one
        service round — a fabric step (when traffic is pending) followed
        by every node's service loop — so *every* round that performs
        work consumes simulated time, including rounds where only nodes
        progress.  (The legacy loop counted fabric steps only, so
        node-only service rounds were invisible in the returned count.)
        Quiescent means: no message in any router, output queue, input
        queue, or input registers, and no pending exception.
        """
        return self._kernel.run(
            max_cycles=max_rounds, stall_error=NetworkError, label="cluster"
        ).cycles

    # ------------------------------------------------------------------
    # Remote operations.
    # ------------------------------------------------------------------

    def _install_reply_inlet(self, node_id: int) -> tuple[int, int, RemoteValue]:
        """Register a one-shot inlet that banks a reply value."""
        result = RemoteValue()
        node = self.node(node_id)

        def inlet(_node: Node, message: Message) -> None:
            result.ready = True
            result.value = message.word(2)

        ip = node.register_inlet(inlet)
        reply_fp = pack_destination(node_id, 0)
        return reply_fp, ip, result

    def remote_read(self, source: int, target: int, address: int) -> int:
        """Read ``target``'s memory word at ``address`` from ``source``."""
        reply_fp, reply_ip, result = self._install_reply_inlet(source)
        self._post(source, build_read_request(target, address, reply_fp, reply_ip))
        self.run()
        return result.get()

    def remote_write(self, source: int, target: int, address: int, value: int) -> None:
        """Write ``value`` into ``target``'s memory from ``source``."""
        self._post(source, build_write_request(target, address, value))
        self.run()

    def remote_block_write(
        self, source: int, target: int, address: int, values
    ) -> None:
        """Write consecutive words into ``target``'s memory.

        Issues one Write message per word — the short-message regime the
        paper targets; senders whose output queue fills mid-burst stall
        through the drain hook, exercising the flow-control path.
        """
        for offset, value in enumerate(values):
            self._post(
                source, build_write_request(target, address + 4 * offset, value)
            )
        self.run()

    def remote_block_read(
        self, source: int, target: int, address: int, count: int
    ) -> List[int]:
        """Read ``count`` consecutive words from ``target``'s memory.

        All requests are issued before any reply is awaited, so the reads
        pipeline through the fabric rather than serialising on latency.
        """
        pendings: List[RemoteValue] = []
        for offset in range(count):
            reply_fp, reply_ip, result = self._install_reply_inlet(source)
            pendings.append(result)
            self._post(
                source,
                build_read_request(
                    target, address + 4 * offset, reply_fp, reply_ip
                ),
            )
        self.run()
        return [p.get() for p in pendings]

    def istructure_alloc(self, node_id: int, length: int) -> int:
        """Allocate an I-structure array on ``node_id``; returns its descriptor."""
        return self.node(node_id).istructures.allocate(length)

    def istructure_read(
        self, source: int, target: int, descriptor: int, index: int
    ) -> RemoteValue:
        """PRead: returns a :class:`RemoteValue` that fills when written.

        Unlike :meth:`remote_read` this does not block on quiescence —
        an empty element legitimately leaves the reader deferred.
        """
        reply_fp, reply_ip, result = self._install_reply_inlet(source)
        self._post(
            source, build_pread_request(target, descriptor, index, reply_fp, reply_ip)
        )
        self.run()
        return result

    def istructure_write(
        self, source: int, target: int, descriptor: int, index: int, value: int
    ) -> None:
        """PWrite: store once; satisfies any deferred readers."""
        self._post(source, build_pwrite_request(target, descriptor, index, value))
        self.run()

    def spawn(
        self,
        source: int,
        target: int,
        inlet_ip: int,
        data=(),
        fp_low: int = 0,
    ) -> None:
        """Send a type-0 message invoking ``inlet_ip`` on ``target``."""
        self._post(source, build_send(target, fp_low, inlet_ip, data))
        self.run()

    def _post(self, source: int, message: Message) -> None:
        """Queue an already-composed message at ``source``'s interface."""
        node = self.node(source)
        ni = node.interface
        for index, word in enumerate(message.words):
            ni.write_output(index, word)
        node.send_with_retry(message.mtype)

    # ------------------------------------------------------------------
    # Whole-machine statistics.
    # ------------------------------------------------------------------

    def total_messages_handled(self) -> int:
        return sum(node.stats.handled for node in self.nodes)

    def istructure_stats(self):
        """Merged I-structure outcome statistics across all nodes."""
        from repro.node.istructure import IStructureStats

        merged = IStructureStats()
        for node in self.nodes:
            merged.merge(node.istructures.stats)
        return merged
