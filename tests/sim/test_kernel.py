"""The cycle engine's contract: ordering, wake/sleep, stop conditions."""

import pytest

from repro.errors import SimStallError, SimulationError
from repro.sim.component import SimComponent
from repro.sim.kernel import SimKernel


class Recorder(SimComponent):
    """Ticks for a fixed number of cycles, logging (name, cycle) pairs."""

    def __init__(self, name, work, log):
        self.name = name
        self.work = work
        self.log = log

    def tick(self, cycle):
        self.log.append((self.name, cycle))
        if self.work:
            self.work -= 1

    def quiescent(self):
        return self.work == 0

    def snapshot(self):
        return {"work": self.work}


class TestOrdering:
    def test_components_tick_in_registration_order(self):
        log = []
        kernel = SimKernel()
        kernel.register(Recorder("b", 2, log))
        kernel.register(Recorder("a", 2, log))
        kernel.run()
        assert log == [("b", 1), ("a", 1), ("b", 2), ("a", 2)]

    def test_empty_kernel_rejected(self):
        with pytest.raises(SimulationError):
            SimKernel().run()

    def test_register_mid_run_rejected(self):
        kernel = SimKernel()
        log = []

        class Registrar(Recorder):
            def tick(self, cycle):
                kernel.register(Recorder("late", 1, log))

        kernel.register(Registrar("r", 1, log))
        with pytest.raises(SimulationError):
            kernel.run()


class TestStopConditions:
    def test_quiescent_machine_runs_zero_cycles(self):
        kernel = SimKernel()
        kernel.register(Recorder("a", 0, []))
        assert kernel.run() == 0

    def test_runs_until_all_components_quiescent(self):
        kernel = SimKernel()
        kernel.register(Recorder("short", 1, []))
        kernel.register(Recorder("long", 5, []))
        assert kernel.run() == 5

    def test_cycle_bound_overrides_quiescence(self):
        log = []
        kernel = SimKernel()
        kernel.register(Recorder("busy", 100, log))
        kernel.register(Recorder("idle", 0, log))
        assert kernel.run(cycles=3) == 3
        # Quiescence plays no part: both tick in every cycle of the run.
        assert [name for name, _ in log] == ["busy", "idle"] * 3
        assert kernel.run(cycles=2) == 2
        assert kernel.cycle == 5

    def test_stall_raises_with_component_snapshots(self):
        kernel = SimKernel()
        kernel.register(Recorder("stuck", 10_000, []))
        with pytest.raises(SimStallError) as err:
            kernel.run(max_cycles=7, label="probe")
        message = str(err.value)
        assert "probe did not reach its stop condition within 7 cycles" in message
        assert "  - stuck [awake] work=9993" in message

    def test_cycle_counter_accumulates_across_runs(self):
        kernel = SimKernel()
        component = Recorder("a", 2, [])
        kernel.register(component)
        assert kernel.run() == 2
        component.work = 3
        # max_cycles bounds the new run, not the accumulated total.
        assert kernel.run(max_cycles=3) == 3
        assert kernel.cycle == 5


class Periodic(Recorder):
    """Ticks every ``period`` cycles and sleeps in between."""

    def __init__(self, name, period, log):
        super().__init__(name, 0, log)
        self.period = period

    def tick(self, cycle):
        super().tick(cycle)
        self.handle.wake_at(cycle + self.period)


class TestBoundedRuns:
    """``run(cycles=N)`` fast-forwards over cycles in which nothing is
    awake, ends at exactly ``start + N``, and ticks what the literal
    cycle-by-cycle loop (``fast_forward=False``) ticks."""

    @staticmethod
    def _bounded(fast_forward, bound, asleep):
        log = []
        kernel = SimKernel(fast_forward=fast_forward)
        periodic = Periodic("p", 5, log)
        periodic.handle = kernel.register(periodic)
        periodic.handle.wake_at(3)
        stale = Recorder("stale", 0, log)
        stale.handle = kernel.register(stale)
        # A timed wake cancelled by sleep() leaves a stale heap entry at
        # cycle 7, which the longer windows below cross.
        stale.handle.wake_at(7)
        stale.handle.sleep()
        # Ticks at 3; at cycle 4 its next wake is cycle 8.
        assert kernel.run(cycles=4) == 4
        if asleep:
            periodic.handle.sleep()
        start = kernel.cycle
        assert kernel.run(cycles=bound) == bound
        assert kernel.cycle == start + bound
        return log

    @pytest.mark.parametrize(
        "bound", [0, 2, 4, 11], ids=["empty", "before-wake", "at-wake", "after-wake"]
    )
    def test_ends_at_the_bound_with_the_literal_loops_ticks(self, bound):
        log = self._bounded(True, bound, asleep=False)
        assert log == self._bounded(False, bound, asleep=False)
        assert log == [("p", 3)] + [("p", c) for c in (8, 13) if c <= 4 + bound]

    def test_nothing_awake(self):
        log = self._bounded(True, 20, asleep=True)
        assert log == self._bounded(False, 20, asleep=True) == [("p", 3)]


class TestWakeSleep:
    def test_sleeping_component_is_skipped(self):
        log = []

        class Sleeper(Recorder):
            def tick(self, cycle):
                super().tick(cycle)
                self.handle.sleep()

        kernel = SimKernel()
        sleeper = Sleeper("sleeper", 1, log)
        sleeper.handle = kernel.register(sleeper)
        kernel.register(Recorder("worker", 4, log))
        kernel.run()
        assert [entry for entry in log if entry[0] == "sleeper"] == [("sleeper", 1)]

    def test_timed_wake_resumes_on_schedule(self):
        log = []

        class Periodic(Recorder):
            def tick(self, cycle):
                super().tick(cycle)
                if self.work:
                    self.handle.wake_at(cycle + 3)
                else:
                    self.handle.sleep()

        kernel = SimKernel()
        periodic = Periodic("p", 3, log)
        periodic.handle = kernel.register(periodic)
        kernel.register(Recorder("clock", 10, log))
        kernel.run()
        assert [c for name, c in log if name == "p"] == [1, 4, 7]

    def test_wake_reenters_scan(self):
        log = []

        class Waker(Recorder):
            def __init__(self, name, work, log, target):
                super().__init__(name, work, log)
                self.target = target

            def tick(self, cycle):
                super().tick(cycle)
                if cycle == 2:
                    self.target.handle.wake()

        kernel = SimKernel()
        sleeper = Recorder("sleeper", 1, log)
        waker = Waker("waker", 3, log, sleeper)
        waker.handle = kernel.register(waker)
        sleeper.handle = kernel.register(sleeper)
        sleeper.handle.sleep()
        kernel.run()
        # Woken mid-cycle 2 by an earlier-registered component, the
        # sleeper joins that same cycle's scan.
        assert ("sleeper", 2) in log

    def test_sleeping_component_still_holds_machine_open(self):
        kernel = SimKernel()
        sleeper = Recorder("sleeper", 5, [])
        handle = kernel.register(sleeper)
        handle.wake_at(10_000)
        kernel.register(Recorder("clock", 1, []))
        with pytest.raises(SimStallError):
            kernel.run(max_cycles=50)


class TestTimedWakeTies:
    """Heap ties resolve like the flag-array scan: registration order.

    The timed-wake heap stores ``(cycle, index)`` events, so several
    components due on the same cycle pop in index order — exactly the
    order the awake-flag ``list.index`` scan would service them.  The
    repeat run pins the order as deterministic, and the
    ``fast_forward=False`` twin pins it equal to the literal
    cycle-by-cycle loop's.
    """

    @staticmethod
    def _run_tied(fast_forward):
        log = []
        kernel = SimKernel(fast_forward=fast_forward)
        components = [Recorder(f"c{i}", 1, log) for i in range(5)]
        handles = [kernel.register(c) for c in components]
        # Same due cycle for every component, scheduled in reverse so a
        # naive insertion order would differ from index order.
        for handle in reversed(handles):
            handle.wake_at(10)
        kernel.run()
        return log

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_same_cycle_wakes_tick_in_registration_order(self, fast_forward):
        assert self._run_tied(fast_forward) == [
            (f"c{i}", 10) for i in range(5)
        ]

    def test_tie_order_is_deterministic_across_repeats(self):
        runs = [self._run_tied(fast_forward=True) for _ in range(5)]
        assert all(run == runs[0] for run in runs)
        # ...and identical to the flag-scan (no fast-forward) loop.
        assert runs[0] == self._run_tied(fast_forward=False)
