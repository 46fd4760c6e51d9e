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

Link buffers are keyed ``(upstream neighbor, vc)``; the injection
buffer is fed by the local interface's output queue.  The ejection path
into the local interface's input queue needs no buffer of its own.
Only the fabric moves messages between buffers; traffic placed by hand
goes in through :meth:`~repro.network.fabric.Fabric.place`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.nic.messages import Message

#: Messages the injection buffer holds.
INJECTION_DEPTH = 4


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
        num_vcs: int = 1,
    ) -> None:
        if link_buffer_depth < 1:
            raise NetworkError("router buffers must hold at least one message")
        if num_vcs < 1:
            raise NetworkError("routers need at least one virtual channel")
        self.node = node
        self.neighbors = tuple(neighbors)
        self.link_buffer_depth = link_buffer_depth
        self.num_vcs = num_vcs
        # Neighbor-major, channel-minor: with one VC the iteration order
        # is exactly the old per-neighbor order.
        self.in_buffers: Dict[Tuple[int, int], Deque[InTransit]] = {
            (neighbor, vc): deque()
            for neighbor in self.neighbors
            for vc in range(num_vcs)
        }
        self.injection: Deque[InTransit] = deque()
        #: Every buffer, empty or not, in service order: link channels
        #: neighbor-major, channel-minor, then the injection buffer, so
        #: network traffic drains ahead of new load (the usual
        #: anti-livelock priority).
        self.service_order: Tuple[Deque[InTransit], ...] = tuple(
            self.in_buffers.values()
        ) + (self.injection,)
        #: Messages held in all buffers, maintained on every entry and exit.
        self.occupancy = 0
        #: The fabric's record of this router's last arbitration while its
        #: heads cannot move, replayed instead of re-arbitrated (see
        #: :class:`~repro.network.fabric.Fabric`); ``None`` otherwise.
        self.hold: Optional[tuple] = None
        self.stats = RouterStats()

    def inject(self, item: InTransit) -> None:
        if len(self.injection) >= INJECTION_DEPTH:
            raise NetworkError(f"router {self.node}: injection buffer full")
        self.injection.append(item)
        self.occupancy += 1
        self.stats.injected += 1
