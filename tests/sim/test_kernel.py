"""The cycle engine's contract: ordering, wake/sleep, stop conditions."""

import pytest

from repro.errors import SimStallError, SimulationError
from repro.sim import SimComponent, SimKernel


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
        result = kernel.run()
        assert result.cycles == 0
        assert result.reason == "quiescent"

    def test_runs_until_all_components_quiescent(self):
        kernel = SimKernel()
        kernel.register(Recorder("short", 1, []))
        kernel.register(Recorder("long", 5, []))
        result = kernel.run()
        assert result.cycles == 5

    def test_custom_predicate_overrides_quiescence(self):
        log = []
        kernel = SimKernel()
        kernel.register(Recorder("a", 100, log))
        result = kernel.run(until=lambda: len(log) >= 3)
        assert result.cycles == 3
        assert result.reason == "predicate"

    def test_stall_raises_with_component_snapshots(self):
        kernel = SimKernel()
        kernel.register(Recorder("stuck", 10_000, []), name="stuck")
        with pytest.raises(SimStallError) as err:
            kernel.run(max_cycles=7)
        message = str(err.value)
        assert "within 7 cycles" in message
        assert "stuck" in message
        assert "work=9993" in message

    def test_stall_error_type_is_pluggable(self):
        kernel = SimKernel()
        kernel.register(Recorder("stuck", 100, []))
        with pytest.raises(TimeoutError):
            kernel.run(max_cycles=3, stall_error=TimeoutError)

    def test_cycle_counter_accumulates_across_runs(self):
        kernel = SimKernel()
        component = Recorder("a", 2, [])
        kernel.register(component)
        assert kernel.run().cycles == 2
        component.work = 3
        # max_cycles bounds the new run, not the accumulated total.
        assert kernel.run(max_cycles=3).cycles == 3
        assert kernel.cycle == 5


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
