"""A per-node router with per-VC bounded buffers and credit backpressure.

The router moves whole messages (the flit-serial view lives in
:mod:`repro.nic.rtl`); what matters to the architecture's flow-control
story (paper Section 2.1.1) is preserved exactly:

* every buffer is bounded, so a slow receiver backs the network up;
* a message advances only when the next buffer has space — credit flow
  control — so nothing is ever dropped;
* when the backpressure reaches a sender's output queue, its ``SEND``
  stalls or traps per the CONTROL register.

Each incoming link carries ``num_vcs`` virtual channels, each with its
own bounded buffer and its own credit; which channel a message rides is
the routing policy's choice (:mod:`repro.network.routing` — adaptive
policies spread over channels, :class:`~repro.network.routing.EscapeVC`
reserves channel 0 as the dimension-order escape path).  With the
default single channel the router is byte-identical to its pre-VC self.

A buffer is identified by its *source key*: ``(neighbor, vc)`` for a
link channel, ``None`` for the injection buffer fed by the local
interface's output queue.  The ejection path into the local interface's
input queue needs no buffer of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.errors import NetworkError
from repro.nic.messages import Message

#: A link buffer's identity: (upstream neighbor, virtual channel).
#: ``None`` identifies the injection buffer.  A bare neighbor id is
#: accepted anywhere a source key is and means its channel 0.
SourceKey = Optional[Union[int, Tuple[int, int]]]


@dataclass
class InTransit:
    """A message inside the fabric, with bookkeeping for statistics.

    ``destination`` caches ``message.destination`` (decoded from ``m0``
    once, not per arbitration).
    """

    message: Message
    injected_at: int
    hops: int = 0
    destination: int = field(init=False)

    def __post_init__(self) -> None:
        self.destination = self.message.destination


@dataclass
class RouterStats:
    """Per-router traffic counters; each counts exactly one thing.

    * ``injected`` — messages that entered the network here, from the
      local interface's output queue.
    * ``forwarded`` — messages this router passed onward to a *neighbor*
      router.  The final hop into the local interface is never counted
      here, so across a delivered message's life ``sum(forwarded)``
      equals its hop count and ``forwarded + ejected`` never
      double-counts the ejection hop.
    * ``ejected`` — messages this router handed to its local interface
      (delivery accepted, whether queued or diverted).
    * ``blocked_moves`` — head-of-buffer service opportunities lost to a
      lack of credit: one per cycle per output port whose chosen message
      could not move.  A router with two blocked outputs in one cycle
      counts two.
    """

    injected: int = 0
    forwarded: int = 0
    ejected: int = 0
    blocked_moves: int = 0


class Router:
    """One node's router."""

    def __init__(
        self,
        node: int,
        neighbors: Tuple[int, ...],
        link_buffer_depth: int = 4,
        injection_depth: int = 4,
        num_vcs: int = 1,
    ) -> None:
        if link_buffer_depth < 1 or injection_depth < 1:
            raise NetworkError("router buffers must hold at least one message")
        if num_vcs < 1:
            raise NetworkError("routers need at least one virtual channel")
        self.node = node
        self.neighbors = tuple(neighbors)
        self.link_buffer_depth = link_buffer_depth
        self.injection_depth = injection_depth
        self.num_vcs = num_vcs
        # Neighbor-major, channel-minor: with one VC the iteration order
        # is exactly the old per-neighbor order.
        self.in_buffers: Dict[Tuple[int, int], Deque[InTransit]] = {
            (neighbor, vc): deque()
            for neighbor in self.neighbors
            for vc in range(num_vcs)
        }
        self.injection: Deque[InTransit] = deque()
        #: Every buffer in :meth:`pending_sources` order, empty or not.
        self.service_order: Tuple[Deque[InTransit], ...] = tuple(
            self.in_buffers.values()
        ) + (self.injection,)
        #: Messages held in all buffers, maintained on every entry and exit.
        self.occupancy = 0
        self.stats = RouterStats()

    def _buffer_key(self, neighbor: int, vc: int) -> Tuple[int, int]:
        key = (neighbor, vc)
        if key not in self.in_buffers:
            raise NetworkError(
                f"router {self.node} has no link from {neighbor} vc{vc}"
            )
        return key

    # ------------------------------------------------------------------
    # Capacity checks (credits).
    # ------------------------------------------------------------------

    def can_accept_from(self, neighbor: int, vc: int = 0) -> bool:
        return len(self.in_buffers[self._buffer_key(neighbor, vc)]) < (
            self.link_buffer_depth
        )

    def can_inject(self) -> bool:
        return len(self.injection) < self.injection_depth

    # ------------------------------------------------------------------
    # Data movement.
    # ------------------------------------------------------------------

    def accept_from(self, neighbor: int, item: InTransit, vc: int = 0) -> None:
        """Take one message arriving over the link from ``neighbor``.

        The *sending* router's ``forwarded`` counter is maintained by the
        fabric at the move; accepting counts only the hop itself.  This
        places traffic by hand (tests, deadlock scenarios): the fabric's
        own moves append to their resolved buffers and report each hop
        to the fabric's observer.
        """
        if not self.can_accept_from(neighbor, vc):
            raise NetworkError(
                f"router {self.node}: link buffer from {neighbor} vc{vc} is full"
            )
        item.hops += 1
        self.in_buffers[(neighbor, vc)].append(item)
        self.occupancy += 1

    def inject(self, item: InTransit) -> None:
        if not self.can_inject():
            raise NetworkError(f"router {self.node}: injection buffer full")
        self.injection.append(item)
        self.occupancy += 1
        self.stats.injected += 1

    def pending_sources(self) -> List[SourceKey]:
        """Buffer keys with a message ready, in service order.

        Link channels are served neighbor-major, channel-minor, before
        the injection buffer (``None``) so network traffic drains ahead
        of new load — the usual anti-livelock priority.
        """
        order: List[SourceKey] = [
            key for key, buffer in self.in_buffers.items() if buffer
        ]
        if self.injection:
            order.append(None)
        return order

    def _buffer(self, source: SourceKey) -> Deque[InTransit]:
        if source is None:
            return self.injection
        if isinstance(source, int):
            source = (source, 0)
        return self.in_buffers[self._buffer_key(*source)]

    def take(self, source: SourceKey) -> InTransit:
        buffer = self._buffer(source)
        if not buffer:
            raise NetworkError(f"router {self.node}: buffer {source} is empty")
        self.occupancy -= 1
        return buffer.popleft()

    def is_idle(self) -> bool:
        return self.occupancy == 0
