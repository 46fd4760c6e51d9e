"""The processor-driven baseline: the same collectives, run as inlets.

This variant executes the *identical* step functions from
:mod:`repro.collectives.programs`, but installs them as node inlets under
:class:`repro.api.cluster.Cluster`: every arriving step message wakes the
node's poll/dispatch/handle service loop, is dispatched by the type-0
``handle_send`` handler through the inlet registry, and every outgoing
message goes through the processor's ``send_with_retry`` path.  That is
the conventional design the paper's interface competes with — the
processor does all the protocol work — and it is what the NIC-offloaded
engine is measured against.

Because the step functions, the tree, and the combine operations are
shared, the final per-node results are identical to the NIC variant by
construction; the difference the eval prices is *where the steps ran*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.api.cluster import Cluster
from repro.collectives.engine import CollectiveRun
from repro.collectives.programs import (
    PROGRAMS,
    HandlerContext,
    enter as program_enter,
)
from repro.collectives.tree import CombiningTree
from repro.errors import CollectiveError
from repro.network.topology import Topology
from repro.nic.messages import Message
from repro.node.node import Node


class _ProcContext(HandlerContext):
    """A node's handler context bound to the processor send path."""

    def __init__(
        self, node: Node, tree: CombiningTree, kind: str, op: str
    ) -> None:
        super().__init__(node.node_id, tree, kind, op)
        self._node = node

    def emit(self, message: Message) -> None:
        # The processor composes into the output registers and SENDs,
        # stalling through the drain hook when the queue is full — the
        # paper's Section 3.1 send sequence, charged to the processor.
        interface = self._node.interface
        for index, word in enumerate(message.words):
            interface.write_output(index, word)
        self._node.send_with_retry(message.mtype)


def _install(cluster: Cluster, contexts: List[_ProcContext]) -> None:
    for node, ctx in zip(cluster.nodes, contexts):
        for ip, program in PROGRAMS.items():

            def inlet(_node: Node, message: Message, _p=program, _c=ctx) -> None:
                _p(_c, message)

            node.register_inlet(inlet, ip=ip)


def run_proc_collective(
    kind: str,
    topology: Topology,
    op: str = "sum",
    values: Optional[Sequence] = None,
    root: int = 0,
    arity: int = 2,
) -> CollectiveRun:
    """Run one collective processor-side and return its record.

    Same contract as
    :func:`repro.collectives.engine.run_nic_collective`: ``values`` holds
    contributions (reduce/allreduce) or the root payload (broadcast) and
    defaults to ``range(n_nodes)``.
    """
    n = topology.n_nodes
    if values is None:
        values = list(range(n))
    cluster = Cluster(topology)
    tree = CombiningTree(n, root=root, arity=arity)
    contexts = [
        _ProcContext(node, tree, kind, op) for node in cluster.nodes
    ]
    _install(cluster, contexts)
    for node_id in range(n):
        program_enter(contexts[node_id], values[node_id])
    cycles = cluster.run(max_rounds=200_000)
    incomplete = [c.node for c in contexts if not c.state.completed]
    if incomplete:
        raise CollectiveError(
            f"{kind} quiesced with {len(incomplete)} nodes incomplete: "
            f"{incomplete[:8]}"
        )
    events = {"handled": 0, "sends": 0, "combines": 0}
    for ctx in contexts:
        for key, count in ctx.state.events.items():
            events[key] += count
    # Steps here are dispatched by the node service loop, not the
    # contexts, so "handled" is the loop's own count of messages.
    events["handled"] = cluster.total_messages_handled()
    results: Dict[int, object] = {
        ctx.node: ctx.state.result for ctx in contexts
    }
    return CollectiveRun(
        kind=kind,
        variant="proc",
        n_nodes=n,
        results=results,
        cycles=cycles,
        events=events,
        fabric_delivered=cluster.fabric.stats.delivered,
        fabric_hops=cluster.fabric.stats.total_hops,
        dispatch=None,
    )
