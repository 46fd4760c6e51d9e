"""Turn-based service: the TAM runtime's scheduler and its flags.

The TAM runtime's unit of time is the *productive turn* (one thread run
or one message processed), not the cycle, so it schedules here rather
than on :class:`~repro.sim.kernel.SimKernel`'s cycle loop.  The service
order is:

* states are serviced in ascending index order, sweep after sweep;
* each state performs at most one unit of work per sweep;
* a run ends when a full sweep finds no work anywhere;
* ``max_turns`` bounds productive turns exactly: a run needing exactly
  ``max_turns`` turns succeeds, one needing more raises ``stall()``
  before executing the excess turn.  (The legacy loops charged the
  bound *after* executing a turn, silently permitting ``max_turns + 1``
  productive turns.)

:class:`ReferenceSweep` scans every state every sweep — the executable
specification, which the reference TAM backend runs on.  The codegen
backend's one loop (``TamMachine._run_codegen_fused``) reproduces the
identical order over the flag arrays of :class:`ActiveSweep`, so idle
states cost nothing: the arrays carry a ``True`` sentinel at index ``n``
so the sweep scan (``list.index``) always terminates without an
exception, and a state activated mid-sweep joins the current sweep if
the sweep has not yet passed it (the reference policy would still reach
it) and the next sweep otherwise.  The TAM backend-matrix tests pin the
two backends turn for turn, observed and not.
"""

from __future__ import annotations

from typing import Callable, List, Sequence


class ReferenceSweep:
    """Scan-all-states scheduler: the executable specification."""

    def run(
        self,
        states: Sequence,
        has_work: Callable[[object], object],
        do_one: Callable[[object], None],
        max_turns: int,
        stall: Callable[[], BaseException],
    ) -> int:
        """Service ``states`` to quiescence; returns productive turns.

        ``has_work(state)`` is truthy while the state can perform a unit
        of work; ``do_one(state)`` performs exactly one.
        """
        turns = 0
        while True:
            progressed = False
            for state in states:
                if not has_work(state):
                    continue
                if turns >= max_turns:
                    raise stall()
                do_one(state)
                progressed = True
                turns += 1
            if not progressed:
                return turns


class ActiveSweep:
    """The flag arrays of the codegen TAM loop.

    One instance lives per machine: ``in_current`` / ``in_next`` /
    ``sweep_pos`` are public on purpose — the machine's message-post
    path and generated code set them directly (the hottest operation in
    a TAM run), and the fused loop swaps the two arrays between sweeps.
    ``active`` is True only while a run is in progress, which posting
    code uses as the signal that activity flags need maintaining at all.
    """

    __slots__ = ("in_current", "in_next", "sweep_pos", "active")

    def __init__(self, n: int) -> None:
        # Sentinel True at index n terminates the list.index scans.
        self.in_current: List[bool] = [False] * n + [True]
        self.in_next: List[bool] = [False] * n + [True]
        self.sweep_pos = -1
        self.active = False
