"""The two turn policies: identical service order, exact turn bounds.

The synthetic states here model the TAM shape (a work stack that can
spawn work on other states) without any TAM machinery, so the policy
contract is pinned independently of the runtime that uses it.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import ActiveSweep, ReferenceSweep


class State:
    """A work queue that can push follow-on work onto other states."""

    def __init__(self, index):
        self.index = index
        self.work = []  # each item: list of (target_index, payload) spawns
        self.serviced = []


class Harness:
    """Drives N states under either policy, recording service order."""

    def __init__(self, n):
        self.states = [State(i) for i in range(n)]
        self.order = []
        self.sweep = ActiveSweep(n)

    def spawn(self, index, item):
        self.states[index].work.append(item)

    def _do_one(self, state):
        spawns = state.work.pop(0)
        self.order.append(state.index)
        state.serviced.append(spawns)
        for target, item in spawns:
            self.states[target].work.append(item)
            if self.sweep.active:
                self.sweep.wake(target)

    def run_reference(self, max_turns=1000, stall=None):
        return ReferenceSweep().run(
            self.states,
            has_work=lambda state: state.work,
            do_one=self._do_one,
            max_turns=max_turns,
            stall=stall or (lambda: SimulationError("turn bound exceeded")),
        )

    def run_active(self, max_turns=1000, stall=None):
        def service(state):
            if not state.work:
                return None
            self._do_one(state)
            return bool(state.work)

        return self.sweep.run(
            self.states,
            service,
            initially_active=[s.index for s in self.states if s.work],
            max_turns=max_turns,
            stall=stall or (lambda: SimulationError("turn bound exceeded")),
        )


def cascade(harness):
    """State 0 fans out to 2 and 1; 1 then feeds 3; 3 re-arms 0."""
    harness.spawn(0, [(2, []), (1, [(3, [])])])
    harness.spawn(1, [])
    harness.spawn(3, [(0, [])])


class TestEquivalence:
    @pytest.mark.parametrize("policy", ["reference", "active"])
    def test_service_order(self, policy):
        harness = Harness(4)
        cascade(harness)
        runner = getattr(harness, f"run_{policy}")
        turns = runner()
        # Both policies service ascending index order, sweep by sweep,
        # with mid-sweep spawns joining the current sweep only when the
        # sweep has not passed the target yet.
        assert turns == len(harness.order)
        reference = Harness(4)
        cascade(reference)
        reference.run_reference()
        assert harness.order == reference.order

    def test_turn_counts_match(self):
        a, b = Harness(5), Harness(5)
        for h in (a, b):
            h.spawn(0, [(4, [(2, [])]), (1, [])])
            h.spawn(3, [])
        assert a.run_reference() == b.run_active()
        assert a.order == b.order


class TestTurnBound:
    """``max_turns`` is exact: K turns within a bound of K succeed."""

    @pytest.mark.parametrize("policy", ["reference", "active"])
    def test_exact_bound_succeeds(self, policy):
        probe = Harness(4)
        cascade(probe)
        needed = probe.run_reference()
        harness = Harness(4)
        cascade(harness)
        runner = getattr(harness, f"run_{policy}")
        assert runner(max_turns=needed) == needed

    @pytest.mark.parametrize("policy", ["reference", "active"])
    def test_one_below_bound_raises(self, policy):
        probe = Harness(4)
        cascade(probe)
        needed = probe.run_reference()
        harness = Harness(4)
        cascade(harness)
        runner = getattr(harness, f"run_{policy}")
        with pytest.raises(SimulationError):
            runner(max_turns=needed - 1)

    @pytest.mark.parametrize("policy", ["reference", "active"])
    def test_runaway_work_raises(self, policy):
        harness = Harness(2)
        harness.spawn(0, [(0, [])])
        original = harness._do_one

        def do_one(state):
            # State 0 perpetually re-arms itself: never quiesces.
            original(state)
            state.work.append([(0, [])])
            if harness.sweep.active:
                harness.sweep.wake(0)

        harness._do_one = do_one
        runner = getattr(harness, f"run_{policy}")
        with pytest.raises(SimulationError):
            runner(max_turns=50)
