"""Collective handler programs: the steps both execution engines share.

A collective here is a small state machine per node whose transitions
are *handler programs* — the code a message dispatches to through the
``MsgIp`` path (Figure 7 case 2: the program's IP travels in word 1 of
the message).  Each step does everything the protocol needs — combine
the carried value into the node's accumulator, update the state, send
the next tree message(s) — and returns, sPIN-style; nothing in a step
requires the processor-driven scheduler.

The same step functions are executed by two engines:

* :class:`repro.collectives.engine.NicHandlerEngine` runs them at the
  interface, the NIC-offloaded variant;
* :mod:`repro.collectives.baseline` registers them as node inlets under
  the cluster's service loop, the processor-driven variant.

Both see the identical messages and state transitions, so the final
values are identical by construction; only *who executes the step* (and
therefore whose cycles are charged) differs.

Message convention (all collective traffic is type 0)::

    m0  destination | low bits = sender's tree rank
    m1  program IP (the MsgIp contract)
    m2  carried value (combine contribution or broadcast value)
    m3, m4  zero

A broadcast carries one word; a sequence payload raises
:class:`~repro.errors.CollectiveError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

from repro.collectives.tree import CombiningTree
from repro.errors import CollectiveError
from repro.nic.messages import TYPE_MSG_IP, Message, pack_destination

#: The collective program region: well clear of the node auto-inlet
#: region (0x4000+) so both engines can install the same IPs.
PROGRAM_IP_BASE = 0x5000

UP_IP = PROGRAM_IP_BASE
"""Combine-up step: fold a child's contribution, forward when complete."""

DOWN_IP = PROGRAM_IP_BASE + 0x10
"""Broadcast-down step: record the value, forward to children."""

#: The collective operations; all are associative and commutative over
#: machine words, so the result is independent of arrival order — the
#: property that lets two engines with different timing agree exactly.
OPS: Dict[str, Callable[[int, int], int]] = {
    "sum": lambda a, b: (a + b) & 0xFFFFFFFF,
    "max": max,
    "min": min,
    "bor": lambda a, b: a | b,
}

COLLECTIVES = ("barrier", "broadcast", "reduce", "allreduce")


@dataclass
class CollectiveState:
    """Per-node collective state: what a NIC handler keeps in registers."""

    arrived: int = 0
    acc: int = 0
    completed: bool = False
    result: object = None
    events: Dict[str, int] = field(
        default_factory=lambda: {"handled": 0, "sends": 0, "combines": 0}
    )


class HandlerContext:
    """What a handler program may touch: one node's view of the machine.

    Engines subclass and supply :meth:`emit` (queue one outgoing
    message, charged as a send) — everything else is shared bookkeeping.
    """

    def __init__(
        self, node: int, tree: CombiningTree, kind: str, op: str = "sum"
    ) -> None:
        if kind not in COLLECTIVES:
            raise CollectiveError(
                f"unknown collective {kind!r}; known: {', '.join(COLLECTIVES)}"
            )
        if op not in OPS:
            raise CollectiveError(
                f"unknown collective op {op!r}; known: {', '.join(OPS)}"
            )
        self.node = node
        self.tree = tree
        self.kind = kind
        self.op = OPS[op]
        self.state = CollectiveState()

    def emit(self, message: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def send(self, message: Message) -> None:
        self.state.events["sends"] += 1
        self.emit(message)

    def complete(self, value) -> None:
        state = self.state
        if state.completed:
            raise CollectiveError(
                f"node {self.node} completed the {self.kind} twice"
            )
        state.completed = True
        state.result = value


def make_step_message(
    destination: int, ip: int, value: int, sender_rank: int
) -> Message:
    """A single-value collective step message (type 0, IP in word 1)."""
    return Message(
        TYPE_MSG_IP,
        (pack_destination(destination, sender_rank), ip, value, 0, 0),
    )


# ----------------------------------------------------------------------
# The step functions.
# ----------------------------------------------------------------------


def _up_contribution(ctx: HandlerContext, value: int) -> None:
    """Fold one contribution (own entry or a child's subtree) upward."""
    state = ctx.state
    if state.arrived == 0:
        state.acc = value
    else:
        state.acc = ctx.op(state.acc, value)
        state.events["combines"] += 1
    state.arrived += 1
    expected = ctx.tree.fan_in(ctx.node) + 1  # children + own entry
    if state.arrived > expected:
        raise CollectiveError(
            f"node {ctx.node} received {state.arrived} contributions, "
            f"expected {expected}"
        )
    if state.arrived < expected:
        return
    parent = ctx.tree.parent(ctx.node)
    if parent is not None:
        ctx.send(
            make_step_message(
                parent, UP_IP, state.acc, ctx.tree.rank(ctx.node)
            )
        )
        if ctx.kind == "reduce":
            # A reduce completes off-root with its subtree partial — a
            # deterministic value, so the two engines still agree.
            ctx.complete(state.acc)
        return
    # Root: the reduction is complete.
    if ctx.kind == "reduce":
        ctx.complete(state.acc)
    else:  # barrier / allreduce: release downward
        _down_value(ctx, state.acc)


def _down_value(ctx: HandlerContext, value: int) -> None:
    """Deliver ``value`` here and forward it to the subtree."""
    for child in ctx.tree.children(ctx.node):
        ctx.send(
            make_step_message(child, DOWN_IP, value, ctx.tree.rank(ctx.node))
        )
    ctx.complete(value)


def program_up(ctx: HandlerContext, message: Message) -> None:
    """The UP_IP handler program: one arriving subtree contribution."""
    _up_contribution(ctx, message.word(2))


def program_down(ctx: HandlerContext, message: Message) -> None:
    """The DOWN_IP handler program: one arriving broadcast value."""
    _down_value(ctx, message.word(2))


PROGRAMS: Dict[int, Callable[[HandlerContext, Message], None]] = {
    UP_IP: program_up,
    DOWN_IP: program_down,
}


def enter(ctx: HandlerContext, value=0) -> None:
    """Processor-side initiation: the node enters the collective.

    This is the only step the *processor* performs in the NIC-offloaded
    variant (plus observing completion); every subsequent step runs in a
    handler.  Barrier contributes a token, reduce/allreduce contribute
    ``value``, broadcast starts the downward phase at the root (and is a
    no-op elsewhere — those nodes complete when the value arrives).
    """
    if ctx.kind == "barrier":
        _up_contribution(ctx, 1)
    elif ctx.kind in ("reduce", "allreduce"):
        _up_contribution(ctx, int(value))
    elif ctx.tree.rank(ctx.node) == 0:  # broadcast root
        _down_value(ctx, _broadcast_word(value))


def _broadcast_word(value) -> int:
    if isinstance(value, (tuple, list)):
        raise CollectiveError(
            f"a broadcast carries one word, not a sequence of {len(value)}"
        )
    return int(value)


def expected_result(
    kind: str, op: str, tree: CombiningTree, values: Sequence
) -> Dict[int, object]:
    """The closed-form per-node results, for verification.

    ``values`` holds each node's contribution (reduce/allreduce) or the
    root's payload at index ``tree.root`` (broadcast); barriers ignore it.
    """
    n = tree.n_nodes
    if kind == "barrier":
        return {node: n for node in range(n)}
    if kind == "broadcast":
        result = _broadcast_word(values[tree.root])
        return {node: result for node in range(n)}
    fold = OPS[op]

    def subtree(node: int) -> int:
        acc = int(values[node])
        for child in tree.children(node):
            acc = fold(acc, subtree(child))
        return acc

    if kind == "allreduce":
        total = subtree(tree.root)
        return {node: total for node in range(n)}
    return {node: subtree(node) for node in range(n)}
