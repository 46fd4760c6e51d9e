"""The deterministic cycle engine.

One :class:`SimKernel` drives any number of registered components
through lockstep cycles.  The rules are few and strict, which is what
makes runs reproducible bit for bit:

* **Ordering** — within a cycle, components tick in registration order,
  always.  A workload that needs "senders before the fabric" registers
  them in that order and never thinks about it again.
* **Cycles** — every executed service round is exactly one cycle; there
  is no domain whose rounds are "free".  The cycle counter is the one
  clock every component sees.
* **Wake/sleep** — a component may remove itself from the per-cycle
  scan (``sleep``), re-enter it (``wake``), or schedule a timed re-entry
  (``wake_at``).  The awake scan uses the flag-array trick of the TAM
  scheduler (:class:`~repro.sim.sweep.ActiveSweep`): a plain bool list
  with a ``True`` sentinel at the end, so skipping sleepers is a
  C-level ``list.index`` scan, not a Python loop.  Timed wakes live
  in a min-heap of ``(cycle, index)`` events (lazily invalidated
  against the authoritative index->cycle dict), so promoting
  due wakes costs ``O(due log pending)`` instead of a scan of every
  pending wake per cycle — and when *nothing* is awake, the kernel
  fast-forwards straight to the next timed wake (or to the run's end)
  instead of spinning through idle cycles.  Cycle counts, stop
  conditions, tick order and stall diagnostics are unchanged by the
  skip; ``SimKernel(fast_forward=False)`` keeps the literal
  cycle-by-cycle loop as the tests' oracle.
* **Stop conditions** — ``run()`` ends when every component reports
  :meth:`~repro.sim.component.SimComponent.quiescent`; ``run(cycles=N)``
  ends after exactly ``N`` cycles, quiescent or not.  A quiescence run
  that has not stopped within ``max_cycles`` raises
  :class:`~repro.errors.SimStallError` with a diagnostic snapshot of
  every component's state, so a timeout is debuggable instead of a
  bare "did not finish".
* **Observation** — the kernel has one run loop and no observer slot
  of its own.  Observers attach to the components they watch
  (:mod:`repro.obs.observer`), and ``python -m repro --profile`` times
  every component's ``tick`` from outside (:mod:`repro.obs.where`).

Quiescence is evaluated *before* each cycle, so a machine that is
already quiescent runs zero cycles, and the returned cycle count is
exactly the number of service rounds executed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.errors import SimStallError, SimulationError


class SimHandle:
    """A component's scheduling handle, returned by ``register``.

    The handle is how a component (or the code that built it) controls
    its own idle-skipping; the kernel never sleeps a component on its
    own.
    """

    __slots__ = ("_kernel", "index")

    def __init__(self, kernel: "SimKernel", index: int):
        self._kernel = kernel
        self.index = index

    def wake(self) -> None:
        """Re-enter the per-cycle scan immediately.

        Waking a component the current cycle's scan has not yet passed
        makes it tick this very cycle; waking one the scan already
        passed takes effect next cycle.
        """
        self._kernel._timed.pop(self.index, None)
        self._kernel._awake[self.index] = True

    def wake_at(self, cycle: int) -> None:
        """Sleep until the kernel reaches ``cycle`` (inclusive)."""
        kernel = self._kernel
        kernel._awake[self.index] = False
        kernel._timed[self.index] = cycle
        heappush(kernel._timed_heap, (cycle, self.index))

    def sleep(self) -> None:
        """Leave the per-cycle scan until explicitly woken."""
        self._kernel._timed.pop(self.index, None)
        self._kernel._awake[self.index] = False


class SimKernel:
    """Deterministic cycle/quiescence engine for registered components."""

    def __init__(self, fast_forward: bool = True) -> None:
        self.cycle = 0
        self._components: List[object] = []
        # Awake flags, one per component, plus the sentinel True that
        # terminates the list.index scan (see sim/sweep's ActiveSweep,
        # which this generalizes).
        self._awake: List[bool] = [True]
        # Timed wakes live twice: ``_timed`` maps index -> wake cycle and
        # is authoritative (wake/sleep rewrite it freely); ``_timed_heap``
        # holds (cycle, index) events and may contain stale entries,
        # invalidated lazily against the dict when popped.
        self._timed: Dict[int, int] = {}
        self._timed_heap: List[Tuple[int, int]] = []
        self._fast_forward = fast_forward
        self._running = False

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def register(self, component) -> SimHandle:
        """Add ``component`` to the machine; service order is registration
        order.  Returns the component's scheduling handle."""
        if self._running:
            raise SimulationError("cannot register components mid-run")
        index = len(self._components)
        self._components.append(component)
        # Keep the sentinel at the end of the flag array.
        self._awake[index] = True
        self._awake.append(True)
        return SimHandle(self, index)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self,
        cycles: Optional[int] = None,
        max_cycles: int = 100_000,
        label: str = "simulation",
    ) -> int:
        """Execute cycles until the stop condition holds; returns how many.

        With ``cycles`` the run ends after exactly that many cycles.
        Without it the run ends when every component is quiescent, and
        raises :class:`SimStallError` with the diagnostic snapshot of
        every component if that takes more than ``max_cycles`` (which
        bounds *this* run: the kernel's cycle counter accumulates across
        runs).
        """
        if self._running:
            raise SimulationError("kernel run re-entered")
        components = self._components
        if not components:
            raise SimulationError("kernel has no registered components")
        awake = self._awake
        timed = self._timed
        theap = self._timed_heap
        n = len(components)
        start = self.cycle
        stop = start + (max_cycles if cycles is None else cycles)
        self._running = True
        try:
            while True:
                if cycles is None and all(c.quiescent() for c in components):
                    return self.cycle - start
                if self.cycle >= stop:
                    if cycles is None:
                        raise SimStallError(self._stall_report(label, max_cycles))
                    return cycles
                self.cycle = cycle = self.cycle + 1
                while theap and theap[0][0] <= cycle:
                    at, i = heappop(theap)
                    if timed.get(i) == at:
                        del timed[i]
                        awake[i] = True
                i = awake.index(True)
                if i == n and self._fast_forward:
                    # Nothing ticks this cycle; drop stale heap entries,
                    # then jump to just before the next timed wake (or to
                    # the run's end when no wake is pending before it).
                    # Nothing ticks in between, so no component's state,
                    # and no quiescence check, can differ on the way.
                    while theap and timed.get(theap[0][1]) != theap[0][0]:
                        heappop(theap)
                    self.cycle = min(theap[0][0] - 1, stop) if theap else stop
                    continue
                while i != n:
                    components[i].tick(cycle)
                    i = awake.index(True, i + 1)
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------

    def _stall_report(self, label: str, max_cycles: int) -> str:
        """The timeout message: what every component looked like."""
        lines = [
            f"{label} did not reach its stop condition within "
            f"{max_cycles} cycles (kernel cycle {self.cycle})",
            "state at stall:",
        ]
        for index, component in enumerate(self._components):
            state = component.snapshot()
            detail = " ".join(f"{key}={value}" for key, value in state.items())
            status = "awake" if self._awake[index] else (
                f"wake@{self._timed[index]}" if index in self._timed else "asleep"
            )
            name = getattr(component, "name", "component")
            lines.append(f"  - {name} [{status}] {detail}".rstrip())
        return "\n".join(lines)
