"""Host-speed probes: time a region of a sample in reference seconds.

The benchmark's host is shared, and other tenants slow it down by tens of
percent for a second or a minute at a time: a sample's wall time
measures the host as much as the simulator.  So while a region runs, a
fixed pure-Python loop (:func:`loop`, the *probe*) runs from a SIGALRM
handler every :data:`INTERVAL_S` seconds, interrupting the region.  Each
probe's time says how fast the host executes Python at that moment;
:data:`REFERENCE_S` is its time on the quiet reference host.  A region
reports

* ``host_s`` -- its wall time minus the time spent in probes, and
* ``speed`` -- the mean of ``REFERENCE_S / probe time`` over its probes,

and ``host_s * speed`` is the region's time in *reference seconds*: how
long it would have taken on the reference host at the probes' speed.
The probe touches nothing of the simulator, so reference seconds move
with the simulator's own cost and not with the host's.  They are a
scale fixed by :func:`loop`, :data:`STEPS`, :data:`INTERVAL_S` and
:data:`REFERENCE_S`: change any of them and times measured before the
change no longer compare with times measured after it.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from typing import List, Optional, Tuple

#: Steps of one probe: 1.4 ms alone on the reference host, about 1.7 ms
#: when it interrupts a simulator run.
STEPS = 6000

#: Seconds between the starts of two probes: a region runs about 7%
#: slower while probed.
INTERVAL_S = 0.03

#: Seconds one probe takes, interrupting a simulator run, on the
#: reference host (a shared 2-vCPU Intel Xeon VM, Python 3.11.7) in a
#: quiet moment; only sets the scale.
REFERENCE_S = 0.0017


class _Node:
    __slots__ = ("ident", "queue", "received", "links")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.queue: deque = deque()
        self.received = 0
        self.links: dict = {}


def loop() -> int:
    """A fixed token-passing loop over 64 small nodes: attribute access,
    dict lookups, deque traffic and integer work, like a simulator step."""
    nodes = [_Node(i) for i in range(64)]
    for node in nodes:
        node.links = {k: nodes[(node.ident * 7 + k) % 64] for k in range(4)}
    nodes[0].queue.append((0, 0))
    total = 0
    for step in range(STEPS):
        node = nodes[step & 63]
        if node.queue:
            hops, tag = node.queue.popleft()
            node.received += 1
            total += hops
            node.links[(tag + hops) & 3].queue.append((hops + 1, tag ^ step))
        else:
            node.queue.append((0, step))
    return total


class Region:
    """One region: probes right away, then every INTERVAL_S until
    :meth:`stop`.  ``start`` backdates the region (a sample's set-up
    begins before this module is imported).  With ``probing=False`` it
    is timed by the wall clock alone and its speed is ``None``."""

    def __init__(self, start: Optional[float] = None, probing: bool = True) -> None:
        self.start = time.perf_counter() if start is None else start
        self.probing = probing
        self.durations: List[float] = []
        if probing:
            signal.signal(signal.SIGALRM, self._probe)
            self._probe()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _probe(self, *_signal) -> None:
        began = time.perf_counter()
        loop()
        self.durations.append(time.perf_counter() - began)

    def stop(self) -> Tuple[float, Optional[float]]:
        """``(host_s, speed)`` of the region; probing stops."""
        if not self.probing:
            return time.perf_counter() - self.start, None
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.start
        speed = sum(REFERENCE_S / d for d in self.durations) / len(self.durations)
        return wall - sum(self.durations), speed
