"""The reference turn policy: service order and exact turn bounds.

The synthetic states here model the TAM shape (a work stack that can
spawn work on other states) without any TAM machinery, so the policy
contract (``tam_reference.ReferenceSweep``, the order
:mod:`repro.sim.sweep` states) is pinned independently of the machine
that uses it.  The TAM machine's loop is pinned to this order turn for
turn by the TAM backend-matrix and codegen-differential tests.
"""

import pytest

from repro.errors import SimulationError
from tam_reference import ReferenceSweep


class Harness:
    """N work queues that can push follow-on work onto each other."""

    def __init__(self, n):
        # Each work item is a list of (target_index, item) spawns.
        self.work = [[] for _ in range(n)]
        self.order = []

    def spawn(self, index, item):
        self.work[index].append(item)

    def do_one(self, index):
        spawns = self.work[index].pop(0)
        self.order.append(index)
        for target, item in spawns:
            self.work[target].append(item)

    def run(self, max_turns=1000):
        return ReferenceSweep().run(
            range(len(self.work)),
            has_work=lambda index: self.work[index],
            do_one=self.do_one,
            max_turns=max_turns,
            stall=lambda: SimulationError("turn bound exceeded"),
        )


def cascade(harness):
    """State 0 fans out to 2 and 1; 1 then feeds 3; 3 re-arms 0."""
    harness.spawn(0, [(2, []), (1, [(3, [])])])
    harness.spawn(1, [])
    harness.spawn(3, [(0, [])])


def turns_needed():
    probe = Harness(4)
    cascade(probe)
    return probe.run()


class TestServiceOrder:
    def test_service_order(self):
        harness = Harness(4)
        cascade(harness)
        turns = harness.run()
        # Ascending index order, sweep by sweep, one unit per state per
        # sweep; work spawned mid-sweep is served in the current sweep
        # when the sweep has not passed its state yet (0 feeds 2), and
        # in the next one otherwise (3 feeds 0).
        assert turns == len(harness.order)
        assert harness.order == [0, 1, 2, 3, 0, 1, 3]


class TestTurnBound:
    """``max_turns`` is exact: K turns within a bound of K succeed."""

    def test_exact_bound_succeeds(self):
        needed = turns_needed()
        harness = Harness(4)
        cascade(harness)
        assert harness.run(max_turns=needed) == needed

    def test_one_below_bound_raises(self):
        harness = Harness(4)
        cascade(harness)
        with pytest.raises(SimulationError):
            harness.run(max_turns=turns_needed() - 1)

    def test_runaway_work_raises(self):
        harness = Harness(2)
        harness.spawn(0, [(0, [])])
        original = harness.do_one

        def do_one(index):
            # State 0 perpetually re-arms itself: never quiesces.
            original(index)
            harness.work[index].append([(0, [])])

        harness.do_one = do_one
        with pytest.raises(SimulationError):
            harness.run(max_turns=50)
