"""One event interface for everything that observes the message path.

An observer — the tracer, the lineage tracker, the metrics sampler, or
one written for a single experiment — subclasses :class:`Observer` and
overrides only the events it uses: a small fixed set, one per step a
message takes (the shape of sPIN's per-message handler events), each a
no-op in the base class.  Interface and fabric events carry the cycle
``ts`` and the ``node`` first; TAM and collectives events carry no time.

The interface, the fabric, the TAM machine and the collectives engine
each hold one ``observer`` slot, ``None`` until something attaches (one
identity check per event site when off).  Several subscribers share a
slot through a :class:`FanOut`, which calls them in attach order.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Optional, Tuple


class Observer:
    """The message-path events; every one is a no-op here."""

    __slots__ = ()

    # -- network interface (cycle timeline) ------------------------------

    def on_send(self, ts: int, node: int, message: Any, mode: Any) -> None:
        """``SEND`` queued ``message``; ``mode`` is its ``SendMode``."""

    def on_stall(self, ts: int, node: int, destination: int) -> None:
        """``SEND`` found the output queue full and queued nothing;
        ``destination`` is the node the message would have gone to."""

    def on_refuse(self, ts: int, node: int, message: Any) -> None:
        """A delivery met a full input queue and stayed in the network."""

    def on_deliver(self, ts: int, node: int, message: Any) -> None:
        """A delivery entered the input queue."""

    def on_divert(self, ts: int, node: int, message: Any, reason: str) -> None:
        """A delivery bypassed the input queue (privileged, pin or cap)."""

    def on_park(self, ts: int, node: int, message: Any) -> None:
        """A scheduler took ``message`` out of the registers or queue."""

    def on_dispatch(self, ts: int, node: int, message: Any, detail: dict) -> None:
        """``message`` entered the input registers; ``detail``: its Figure 7 case."""

    def on_retire(self, ts: int, node: int, message: Any) -> None:
        """``NEXT`` retired ``message`` (``None``: the registers were empty)."""

    # -- fabric (cycle timeline) -----------------------------------------

    def on_serialize_start(self, ts: int, node: int, message: Any) -> None:
        """``message`` reached the head of its output queue."""

    def on_inject(self, ts: int, node: int, message: Any) -> None:
        """``message`` entered the router at ``node``."""

    def on_hop(
        self, ts: int, node: int, message: Any, src: int, vc: int, hops: int
    ) -> None:
        """``message`` crossed the link ``src`` -> ``node`` on channel ``vc``."""

    def on_block(self, ts: int, node: int, message: Any, to: Optional[int]) -> None:
        """``message`` lost a move towards ``to`` (``None``: the ejection port)."""

    def on_eject(
        self, ts: int, node: int, message: Any, hops: int, latency: int
    ) -> None:
        """The router handed ``message`` to its interface, which took it."""

    def on_step(self, ts: int, fabric: Any, delivered: int, link_moves: int) -> None:
        """The fabric finished cycle ``ts``."""

    # -- TAM machine (turn timeline) -------------------------------------

    def on_tam_post(self, message: Any) -> None:
        """An inter-frame message was posted; ``message[0]`` is its kind
        (``.name`` a ``MsgKind`` name) and ``message[1]`` its node."""

    def on_tam_handle_begin(self, node: int, message: Any) -> None:
        """``node`` starts handling ``message``."""

    def on_tam_handle_end(self, node: int, message: Any) -> None:
        """``node`` finished handling ``message`` (also when it raised),
        raised before the machine's next turn."""

    # -- collectives engine ----------------------------------------------

    def on_handler_begin(self, node: int, message: Any) -> None:
        """A handler program starts consuming ``message`` at ``node``."""

    def on_handler_end(self, node: int) -> None:
        """The handler program at ``node`` returned."""

    def on_emit(self, node: int, message: Any) -> None:
        """The handler at ``node`` emitted ``message`` (sent later)."""

    def on_bind(self, message: Any) -> None:
        """The interface sent the emitted ``message``."""


#: Every event name, in declaration order.
EVENTS = tuple(name for name in vars(Observer) if name.startswith("on_"))


def _then(first, second):
    def dispatch(*args: Any) -> None:
        first(*args)
        second(*args)

    return dispatch


class FanOut(Observer):
    """Several subscribers behind one slot; build it with :func:`observer_of`,
    which flattens nested fan-outs.

    Each event resolves once, here: to the base no-op when no subscriber
    overrides it, else to the overriding subscribers' methods chained in
    attach order (one subscriber's method itself).
    """

    def __init__(self, subscribers: Tuple[Observer, ...]) -> None:
        self.subscribers = subscribers
        for name in EVENTS:
            base = getattr(Observer, name)
            hooks = [
                getattr(subscriber, name)
                for subscriber in subscribers
                if getattr(type(subscriber), name) is not base
            ]
            if hooks:
                setattr(self, name, reduce(_then, hooks))


def observer_of(*subscribers: Optional[Observer]) -> Optional[Observer]:
    """What one ``observer`` slot holds for ``subscribers``, in order:
    ``None`` entries skipped and fan-outs flattened, ``None`` for none,
    the subscriber itself for one.  Attaching is ``observer_of(slot, added)``.
    """
    present = [subscriber for subscriber in subscribers if subscriber is not None]
    if len(present) < 2:
        return present[0] if present else None
    flat = []
    for subscriber in present:
        if isinstance(subscriber, FanOut):
            flat.extend(subscriber.subscribers)
        else:
            flat.append(subscriber)
    return FanOut(tuple(flat))
