"""Error-path and host-API tests for the TAM runtime."""

import pytest

from repro.errors import TamError
from repro.obs.tracer import Tracer
from repro.tam.codeblock import Codeblock
from repro.tam.frame import FrameRef
from repro.tam.instructions import (
    ConInstr,
    ForkInstr,
    IfetchInstr,
    Imm,
    IstoreInstr,
    StopInstr,
    WriteInstr,
)
from repro.tam.runtime import IStructRef, TamMachine
from tam_reference import ReferenceMachine, each_machine


def trivial_machine() -> TamMachine:
    machine = TamMachine(2)
    block = Codeblock("t", frame_size=2)
    block.add_thread("entry", [ConInstr(0, 1), StopInstr()]).set_entry("entry")
    machine.load(block)
    return machine


class TestConstruction:
    def test_zero_nodes_rejected(self):
        with pytest.raises(TamError):
            TamMachine(0)

    def test_boot_without_entry(self):
        machine = TamMachine(1)
        block = Codeblock("noentry", frame_size=1)
        block.add_thread("t", [StopInstr()])
        machine.load(block)
        with pytest.raises(TamError):
            machine.boot("noentry")


class TestHostApi:
    def test_read_write_slot(self):
        machine = trivial_machine()
        ref = machine.boot("t")
        machine.write_slot(ref, 1, 99)
        machine.run()
        assert machine.read_slot(ref, 0) == 1
        assert machine.read_slot(ref, 1) == 99

    def test_unknown_frame_rejected(self):
        machine = trivial_machine()
        machine.boot("t")
        with pytest.raises(TamError):
            machine.read_slot(FrameRef(0, 999), 0)

    @each_machine
    def test_istructure_peek(self, Machine):
        machine = Machine(1)
        block = Codeblock("p", frame_size=3)
        block.add_inlet(0, dest_slots=(0,), counter="d")
        block.add_counter("d", 1, "store")
        block.add_thread(
            "entry", [ConInstr(1, 42), ForkInstr("store"), StopInstr()]
        )
        block.add_thread(
            "store", [IstoreInstr(0, Imm(0), value=1), StopInstr()]
        )
        block.set_entry("entry")
        machine.load(block)
        ref = machine.boot("p")
        # Allocate by hand and inject the descriptor; the entry thread
        # then forks the store.
        desc = machine.nodes[0].istructures.allocate(2)
        machine.write_slot(ref, 0, IStructRef(0, desc))
        machine.run()
        assert machine.istructure_peek(IStructRef(0, desc), 0) == 42
        assert machine.istructure_peek(IStructRef(0, desc), 1) is None


class TestBadReferences:
    def test_ifetch_through_non_descriptor(self):
        machine = TamMachine(1)
        block = Codeblock("bad", frame_size=2)
        block.add_inlet(0, dest_slots=(1,), counter="v")
        block.add_counter("v", 1, "done")
        block.add_thread(
            "entry",
            [ConInstr(0, 123), IfetchInstr(0, Imm(0), reply_inlet=0), StopInstr()],
        )
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        machine.load(block)
        machine.boot("bad")
        with pytest.raises(TamError):
            machine.run()

    def test_istore_through_non_descriptor(self):
        machine = TamMachine(1)
        block = Codeblock("bad", frame_size=2)
        block.add_thread(
            "entry",
            [ConInstr(0, 5), IstoreInstr(0, Imm(0), value=0), StopInstr()],
        )
        block.set_entry("entry")
        machine.load(block)
        machine.boot("bad")
        with pytest.raises(TamError):
            machine.run()

    def test_turn_limit_guards_runaway(self):
        machine = TamMachine(1)
        block = Codeblock("spin", frame_size=1)
        block.add_thread("entry", [ForkInstr("entry"), StopInstr()])
        block.set_entry("entry")
        machine.load(block)
        machine.boot("spin")
        with pytest.raises(TamError):
            machine.run(max_turns=100)


def failure(Machine, block, n_nodes=1, descriptor=False):
    """The exception type and message running ``block`` raises.

    ``descriptor`` puts a fresh two-element I-structure's reference in
    slot 0 before the run.
    """
    machine = Machine(n_nodes)
    machine.load(block)
    ref = machine.boot(block.name)
    if descriptor:
        desc = machine.nodes[0].istructures.allocate(2)
        machine.write_slot(ref, 0, IStructRef(0, desc))
    with pytest.raises(Exception) as info:
        machine.run()
    return type(info.value), str(info.value)


class TestCodegenColdPaths:
    """Each raising helper of the generated code reports the reference
    interpreter's exact error for a minimal malformed codeblock."""

    @staticmethod
    def same_failure(block_factory, **kwargs):
        reference = failure(ReferenceMachine, block_factory(), **kwargs)
        assert failure(TamMachine, block_factory(), **kwargs) == reference
        return reference

    def test_slot_past_the_frame(self):
        def block():
            bad = Codeblock("oob", frame_size=2)
            bad.add_thread("entry", [ConInstr(5, 1), StopInstr()])
            return bad.set_entry("entry")

        kind, message = self.same_failure(block)
        assert "slot 5 outside frame of 2" in message

    def test_post_to_a_missing_node(self):
        def block():
            bad = Codeblock("far", frame_size=2)
            bad.add_thread(
                "entry", [ConInstr(0, 7), WriteInstr(0, Imm(0), 1), StopInstr()]
            )
            return bad.set_entry("entry")

        kind, message = self.same_failure(block, n_nodes=2)
        assert (kind, message) == (TamError, "message addressed to unknown node 7")

    def test_ifetch_reply_to_a_missing_inlet(self):
        def block():
            bad = Codeblock("noinlet", frame_size=2)
            bad.add_thread(
                "entry",
                [
                    ConInstr(1, 42),
                    IstoreInstr(0, Imm(0), value=1),
                    IfetchInstr(0, Imm(0), reply_inlet=9),
                    StopInstr(),
                ],
            )
            return bad.set_entry("entry")

        kind, message = self.same_failure(block, descriptor=True)
        assert (kind, message) == (TamError, "codeblock 'noinlet' has no inlet 9")

    def test_fork_to_a_missing_thread(self):
        def block():
            bad = Codeblock("nothread", frame_size=1)
            bad.add_thread("entry", [ForkInstr("nowhere"), StopInstr()])
            return bad.set_entry("entry")

        kind, message = self.same_failure(block)
        assert (kind, message) == (
            TamError,
            "codeblock 'nothread' has no thread 'nowhere'",
        )


OBSERVERS = {
    "none": lambda: None,
    "tracer": Tracer,
}


class TestTurnBoundExactness:
    """``max_turns`` is an exact bound on productive turns.

    Regression pin: the pre-kernel scheduler loops tested
    ``turns > max_turns`` after incrementing, silently permitting
    ``max_turns + 1`` productive turns before raising.  Run on both
    machines, unobserved and observed, which covers the machine's one
    loop in both of its modes (observed, every message takes the
    ``_process_message`` branch).
    """

    @staticmethod
    def two_turn_machine(Machine: type, observer: str) -> TamMachine:
        machine = Machine(1)
        attached = OBSERVERS[observer]()
        if attached is not None:
            machine.attach(attached)
        block = Codeblock("two", frame_size=1)
        block.add_thread("entry", [ForkInstr("second"), StopInstr()])
        block.add_thread("second", [ConInstr(0, 7), StopInstr()])
        block.set_entry("entry")
        machine.load(block)
        machine.boot("two")
        return machine

    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    @each_machine
    def test_exact_bound_succeeds(self, Machine, observer):
        machine = self.two_turn_machine(Machine, observer)
        machine.run(max_turns=2)
        assert machine.turns_executed == 2

    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    @each_machine
    def test_one_below_bound_raises(self, Machine, observer):
        machine = self.two_turn_machine(Machine, observer)
        with pytest.raises(TamError):
            machine.run(max_turns=1)
