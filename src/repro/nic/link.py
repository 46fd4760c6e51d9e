"""A full-duplex link between two clocked NIC chips.

Wires the transmit port of each :class:`~repro.nic.rtl.ClockedNIC` to the
receive port of the other, with one cycle of wire delay per flit and
honest credit sampling: a flit is launched only when the far receive port
asserted ready on the *previous* cycle, exactly as a registered
ready/valid interface behaves.  Its one user is the RTL link tests
(``tests/nic/test_link.py``), which build two-chip systems with it; the
walkthrough example (``examples/rtl_walkthrough.py``) wires its two chips
by hand instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.nic.rtl import ClockedNIC, Flit
from repro.sim.kernel import SimKernel


@dataclass
class _Direction:
    """One direction of the link: a one-flit wire register."""

    wire: Optional[Flit] = None
    launched: int = 0
    stalled_cycles: int = 0


class Link:
    """Two chips, two wires, one clock."""

    def __init__(self, a: ClockedNIC, b: ClockedNIC) -> None:
        self.a = a
        self.b = b
        self._a_to_b = _Direction()
        self._b_to_a = _Direction()
        self.cycle = 0

    def step(self) -> None:
        """Advance both chips and both wires by one cycle.

        The wire register doubles as a skid buffer: a flit launched while
        the far end was mid-message may find the input queue full on
        arrival (the previous message's tail just landed), in which case
        it is held on the wire and the sender sees no credit until it
        drains — nothing is ever dropped.
        """
        self.cycle += 1
        # Decide, per direction, whether the wire's flit can land now.
        deliver_to_b = self._a_to_b.wire if self.b.rx_ready else None
        deliver_to_a = self._b_to_a.wire if self.a.rx_ready else None
        if deliver_to_b is not None:
            self._a_to_b.wire = None
        if deliver_to_a is not None:
            self._b_to_a.wire = None
        # A sender may launch only onto an empty wire.
        a_credit = self._a_to_b.wire is None
        b_credit = self._b_to_a.wire is None
        a_out = self.a.tick(rx_flit=deliver_to_a, tx_credit=a_credit)
        b_out = self.b.tick(rx_flit=deliver_to_b, tx_credit=b_credit)
        if a_out is not None:
            self._a_to_b.wire = a_out
            self._a_to_b.launched += 1
        if b_out is not None:
            self._b_to_a.wire = b_out
            self._b_to_a.launched += 1
        if self.a.tx.busy and not a_credit:
            self._a_to_b.stalled_cycles += 1
        if self.b.tx.busy and not b_credit:
            self._b_to_a.stalled_cycles += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    # The link is itself a kernel component (repro.sim): one tick is one
    # clock edge for both chips and both wires.

    name = "link"

    def tick(self, cycle: int) -> None:
        self.step()

    def quiescent(self) -> bool:
        """Neither chip has traffic in flight and both wires are empty."""
        return not (
            self.a.tx.busy
            or self.b.tx.busy
            or self.a.rx.busy
            or self.b.rx.busy
            or self._a_to_b.wire is not None
            or self._b_to_a.wire is not None
        )

    def snapshot(self) -> dict:
        return {
            "a_tx_busy": self.a.tx.busy,
            "b_tx_busy": self.b.tx.busy,
            "a_rx_busy": self.a.rx.busy,
            "b_rx_busy": self.b.rx.busy,
            "wire_a_to_b": self._a_to_b.wire is not None,
            "wire_b_to_a": self._b_to_a.wire is not None,
        }

    def run_until_idle(self, max_cycles: int = 10_000) -> int:
        """Step until neither chip has traffic in flight."""
        kernel = SimKernel()
        kernel.register(self)
        return kernel.run(
            max_cycles=max_cycles, stall_error=TimeoutError, label="link"
        ).cycles

    @property
    def flits_a_to_b(self) -> int:
        return self._a_to_b.launched

    @property
    def flits_b_to_a(self) -> int:
        return self._b_to_a.launched
