"""Turn-based service policies: the kernel's TAM schedulers.

The TAM runtime's unit of time is the *productive turn* (one thread run
or one message processed), not the cycle, so it schedules on the
policies here rather than on :class:`~repro.sim.kernel.SimKernel`'s
cycle loop.  Both implement the same contract:

* states are serviced in ascending index order, sweep after sweep;
* each state performs at most one unit of work per sweep;
* a run ends when a full sweep finds no work anywhere;
* ``max_turns`` bounds productive turns exactly: a run needing exactly
  ``max_turns`` turns succeeds, one needing more raises ``stall()``
  before executing the excess turn.  (The legacy loops charged the
  bound *after* executing a turn, silently permitting ``max_turns + 1``
  productive turns.)

:class:`ReferenceSweep` scans every state every sweep — the executable
specification.  :class:`ActiveSweep` reproduces the identical service
order with per-state activity flags so idle states cost nothing: the
flag arrays carry a ``True`` sentinel at index ``n`` so the sweep scan
(``list.index``) always terminates without an exception, and a state
activated mid-sweep joins the current sweep if the sweep has not yet
passed it (the reference policy would still reach it) and the next
sweep otherwise.  The codegen TAM backend runs on :class:`ActiveSweep`
(its unobserved loop inlines it); the reference backend runs on
:class:`ReferenceSweep`.  ``tests/sim/test_sweep.py`` pins the two
policies to each other, and the TAM backend-matrix tests pin the
backends turn-for-turn.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence


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
    """Flag-array scheduler: same service order, no idle scans.

    One instance lives per machine: ``in_current`` / ``in_next`` /
    ``sweep_pos`` are public on purpose — the machine's message-post
    path pokes them directly (the hottest operation in a TAM run), and
    that attribute contract is part of the policy's API.  ``active`` is
    True only while a run is in progress, which posting code uses as
    the signal that activity flags need maintaining at all.
    """

    __slots__ = ("n", "in_current", "in_next", "sweep_pos", "active")

    def __init__(self, n: int) -> None:
        self.n = n
        # Sentinel True at index n terminates the list.index scans.
        self.in_current: List[bool] = [False] * n + [True]
        self.in_next: List[bool] = [False] * n + [True]
        self.sweep_pos = -1
        self.active = False

    def wake(self, index: int) -> None:
        """Flag ``index`` for service; mid-sweep wakes join the current
        sweep only if the sweep has not passed them yet."""
        if index > self.sweep_pos:
            self.in_current[index] = True
        else:
            self.in_next[index] = True

    def run(
        self,
        states: Sequence,
        service: Callable[[object], Optional[bool]],
        initially_active: Iterable[int],
        max_turns: int,
        stall: Callable[[], BaseException],
    ) -> int:
        """Service flagged states to quiescence; returns productive turns.

        ``service(state)`` performs at most one unit of work and returns
        ``None`` if the state had none, else whether the state still has
        work (which re-arms its flag for the next sweep).  New work
        created on *other* states must be reported through :meth:`wake`
        (or direct flag stores) while :attr:`active` is set.
        """
        n = self.n
        in_current = self.in_current
        in_next = self.in_next
        for index in initially_active:
            in_current[index] = True
        self.sweep_pos = -1
        self.active = True
        turns = 0
        try:
            while True:
                i = in_current.index(True)
                while i != n:
                    in_current[i] = False
                    self.sweep_pos = i
                    more = service(states[i])
                    if more is None:  # pragma: no cover - flagged states have work
                        i = in_current.index(True, i + 1)
                        continue
                    turns += 1
                    if turns >= max_turns and (
                        more
                        or in_current.index(True, i + 1) != n
                        or in_next.index(True) != n
                    ):
                        # The bound is reached and work remains: a
                        # further productive turn would be needed.
                        raise stall()
                    if more:
                        in_next[i] = True
                    i = in_current.index(True, i + 1)
                self.sweep_pos = -1
                if in_next.index(True) == n:
                    return turns
                # Promote: the next sweep's flags become the current
                # sweep's (the old current array is all-False again).
                in_current, in_next = in_next, in_current
                self.in_current = in_current
                self.in_next = in_next
        finally:
            self.active = False
            self.sweep_pos = -1
            for i in range(n):
                in_current[i] = False
                in_next[i] = False
