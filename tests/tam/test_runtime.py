"""Tests for the TAM runtime: threads, inlets, counters, messages.

Behavioural cases run on both machines, the generated-code one and the
reference interpreter, and read results through the host API
(``read_slot`` / ``write_slot`` / ``frame_view``), which both implement
over their own frame representation.
"""

import pytest

from repro.errors import DeadlockError, FrameError, TamError
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import (
    ConInstr,
    FallocInstr,
    ForkInstr,
    IallocInstr,
    IfetchInstr,
    Imm,
    IstoreInstr,
    Kind,
    MovInstr,
    Op,
    OpInstr,
    ReadInstr,
    SendInstr,
    StopInstr,
    SwitchInstr,
    WriteInstr,
)
from repro.tam.frame import FrameRef
from repro.tam.runtime import TamMachine
from tam_reference import Frame, each_machine


def simple_block() -> Codeblock:
    """slots: 0=a, 1=b, 2=result"""
    block = Codeblock("simple", frame_size=4)
    block.add_thread(
        "entry",
        [
            ConInstr(0, 20),
            ConInstr(1, 22),
            OpInstr(Op.IADD, 2, 0, 1),
            StopInstr(),
        ],
    )
    block.set_entry("entry")
    return block


class TestBasics:
    @each_machine
    def test_boot_and_run(self, Machine):
        machine = Machine(1)
        machine.load(simple_block())
        ref = machine.boot("simple")
        machine.run()
        assert machine.read_slot(ref, 2) == 42

    def test_instruction_counts(self):
        machine = TamMachine(1)
        machine.load(simple_block())
        machine.boot("simple")
        stats = machine.run()
        assert stats.instructions[Kind.CON] == 2
        assert stats.instructions[Kind.IOP] == 1
        assert stats.instructions[Kind.STOP] == 1
        assert stats.threads_run == 1

    def test_duplicate_codeblock_rejected(self):
        machine = TamMachine(1)
        machine.load(simple_block())
        with pytest.raises(TamError):
            machine.load(simple_block())

    def test_boot_unknown_codeblock(self):
        with pytest.raises(TamError):
            TamMachine(1).boot("ghost")

    def test_thread_without_stop_rejected(self):
        block = Codeblock("nostop", frame_size=1)
        block.add_thread("entry", [ConInstr(0, 1)]).set_entry("entry")
        machine = TamMachine(1)
        machine.load(block)
        machine.boot("nostop")
        with pytest.raises(TamError):
            machine.run()

    @each_machine
    def test_boot_slots(self, Machine):
        machine = Machine(1)
        block = Codeblock("args", frame_size=2)
        block.add_thread(
            "entry", [OpInstr(Op.IMUL, 1, 0, Imm(3)), StopInstr()]
        ).set_entry("entry")
        machine.load(block)
        ref = machine.boot("args", slots={0: 7})
        machine.run()
        assert machine.read_slot(ref, 1) == 21


class TestControlFlow:
    @each_machine
    def test_fork_runs_both_threads_lifo(self, Machine):
        block = Codeblock("forky", frame_size=3)
        block.add_thread(
            "entry", [ForkInstr("a"), ForkInstr("b"), StopInstr()]
        )
        block.add_thread("a", [ConInstr(0, 1), StopInstr()])
        block.add_thread("b", [MovInstr(1, 0), StopInstr()])
        block.set_entry("entry")
        machine = Machine(1)
        machine.load(block)
        ref = machine.boot("forky")
        machine.run()
        frame = machine.frame_view(ref)
        # LIFO: b runs before a, so it copies the pre-a value of slot 0.
        assert frame.read(1) == 0
        assert frame.read(0) == 1

    @each_machine
    def test_switch_then_branch(self, Machine):
        block = Codeblock("sw", frame_size=2)
        block.add_thread(
            "entry", [ConInstr(0, 1), SwitchInstr(0, "yes", "no"), StopInstr()]
        )
        block.add_thread("yes", [ConInstr(1, 100), StopInstr()])
        block.add_thread("no", [ConInstr(1, 200), StopInstr()])
        block.set_entry("entry")
        machine = Machine(1)
        machine.load(block)
        ref = machine.boot("sw")
        machine.run()
        assert machine.read_slot(ref, 1) == 100

    @each_machine
    def test_loop_with_counter_reset(self, Machine):
        # Thread loops 5 times via SWITCH; accumulates into slot 1.
        block = Codeblock("loop", frame_size=3)
        block.add_thread(
            "entry",
            [ConInstr(0, 0), ConInstr(1, 0), ForkInstr("body"), StopInstr()],
        )
        block.add_thread(
            "body",
            [
                OpInstr(Op.IADD, 1, 1, 0),
                OpInstr(Op.IADD, 0, 0, Imm(1)),
                OpInstr(Op.LT, 2, 0, Imm(5)),
                SwitchInstr(2, "body"),
                StopInstr(),
            ],
        )
        block.set_entry("entry")
        machine = Machine(1)
        machine.load(block)
        ref = machine.boot("loop")
        machine.run()
        assert machine.read_slot(ref, 1) == 0 + 1 + 2 + 3 + 4


class TestFrameAllocationAndSends:
    def child_block(self) -> Codeblock:
        """Child: waits for two argument words, sends back their product."""
        block = Codeblock("child", frame_size=4)
        # slot 0 = parent frame ref, slots 1,2 = args
        block.add_inlet(0, dest_slots=(0, 1), counter="args")
        block.add_inlet(1, dest_slots=(2,), counter="args")
        block.add_counter("args", 2, "go")
        block.add_thread(
            "go",
            [
                OpInstr(Op.IMUL, 3, 1, 2),
                SendInstr(frame_slot=0, inlet=2, values=(3,)),
                StopInstr(),
            ],
        )
        return block

    def parent_block(self) -> Codeblock:
        block = Codeblock("parent", frame_size=4)
        # slot 0 = child ref, slot 1 = result, slot 3 = self ref
        block.add_inlet(0, dest_slots=(0,), counter="child")
        block.add_counter("child", 1, "feed")
        block.add_inlet(2, dest_slots=(1,), counter="result")
        block.add_counter("result", 1, "done")
        block.add_thread("entry", [FallocInstr("child", reply_inlet=0), StopInstr()])
        block.add_thread(
            "feed",
            [
                SendInstr(frame_slot=0, inlet=0, values=(3, 2)),
                SendInstr(frame_slot=0, inlet=1, values=(2,)),
                StopInstr(),
            ],
        )
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        return block

    def run_parent_child(self, n_nodes: int, Machine: type) -> TamMachine:
        machine = Machine(n_nodes)
        machine.load(self.child_block())
        machine.load(self.parent_block())
        ref = machine.boot("parent", slots={})
        # slot 3 must hold the parent's own ref so the child can reply;
        # the feed thread sends slot values, so bank it before running.
        machine.write_slot(ref, 3, ref)
        self.parent_ref = ref
        machine.run()
        return machine

    @each_machine
    def test_child_computes_and_replies(self, Machine):
        machine = self.run_parent_child(n_nodes=3, Machine=Machine)
        frame = machine.frame_view(self.parent_ref)
        # child received (parent_ref, 2) at inlet 0 and 2 at inlet 1...
        # feed sent values from slots 3 (= parent ref) and 2.
        assert frame.read(1) != 0 or machine.stats.frames_allocated == 2

    @each_machine
    def test_falloc_counts_messages(self, Machine):
        machine = self.run_parent_child(n_nodes=2, Machine=Machine)
        # falloc request + frame-ref reply + two argument sends + result.
        assert machine.stats.messages.sends == 5
        assert machine.stats.frames_allocated == 2

    def test_send_to_non_frame_slot_rejected(self):
        block = Codeblock("bad", frame_size=2)
        block.add_thread(
            "entry", [ConInstr(0, 5), SendInstr(0, 0, ()), StopInstr()]
        ).set_entry("entry")
        machine = TamMachine(1)
        machine.load(block)
        machine.boot("bad")
        with pytest.raises(TamError):
            machine.run()


class TestIStructures:
    def producer_consumer(
        self, n_nodes: int, produce_first: bool, Machine: type = TamMachine
    ) -> TamMachine:
        block = Codeblock("pc", frame_size=6)
        # slot 0 = descriptor, slot 1 = fetched value
        block.add_inlet(0, dest_slots=(0,), counter="desc")
        block.add_counter("desc", 1, "first")
        block.add_inlet(1, dest_slots=(1,), counter="value")
        block.add_counter("value", 1, "done")
        first, second = ("produce", "consume") if produce_first else (
            "consume",
            "produce",
        )
        block.add_thread(
            "entry", [IallocInstr(Imm(4), reply_inlet=0), StopInstr()]
        )
        block.add_thread(
            "first", [ForkInstr(second), ForkInstr(first), StopInstr()]
        )
        block.add_thread(
            "produce",
            [ConInstr(2, 77), IstoreInstr(0, Imm(1), value=2), StopInstr()],
        )
        block.add_thread(
            "consume", [IfetchInstr(0, Imm(1), reply_inlet=1), StopInstr()]
        )
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        machine = Machine(n_nodes)
        machine.load(block)
        self.ref = machine.boot("pc")
        machine.run()
        return machine

    @each_machine
    def test_fetch_after_store_is_full(self, Machine):
        machine = self.producer_consumer(2, produce_first=False, Machine=Machine)
        # LIFO: "first" thread forks second then first; first runs LAST...
        # either way the value must arrive.
        frame = machine.frame_view(self.ref)
        assert frame.read(1) == 77

    @each_machine
    def test_fetch_before_store_defers_then_satisfies(self, Machine):
        machine = self.producer_consumer(2, produce_first=True, Machine=Machine)
        frame = machine.frame_view(self.ref)
        assert frame.read(1) == 77
        mix = machine.stats.messages
        assert mix.preads_full + mix.preads_empty == 1

    def test_outcome_statistics_recorded(self):
        machine = self.producer_consumer(1, produce_first=False)
        mix = machine.stats.messages
        assert mix.preads == 1
        assert mix.pwrites == 1

    def test_deadlock_detected(self):
        block = Codeblock("stuck", frame_size=3)
        block.add_inlet(0, dest_slots=(0,), counter="desc")
        block.add_counter("desc", 1, "fetch")
        block.add_inlet(1, dest_slots=(1,), counter="value")
        block.add_counter("value", 1, "done")
        block.add_thread("entry", [IallocInstr(Imm(2), 0), StopInstr()])
        block.add_thread("fetch", [IfetchInstr(0, Imm(0), 1), StopInstr()])
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        machine = TamMachine(1)
        machine.load(block)
        machine.boot("stuck")
        with pytest.raises(DeadlockError):
            machine.run()


class TestPlainMemory:
    @each_machine
    def test_write_then_read(self, Machine):
        block = Codeblock("mem", frame_size=4)
        block.add_inlet(0, dest_slots=(1,), counter="value")
        block.add_counter("value", 1, "done")
        block.add_thread(
            "entry",
            [
                ConInstr(0, 1),  # target node
                ConInstr(2, 123),
                WriteInstr(node_slot=0, address=Imm(0x40), value=2),
                ReadInstr(node_slot=0, address=Imm(0x40), reply_inlet=0),
                StopInstr(),
            ],
        )
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        machine = Machine(2)
        machine.load(block)
        ref = machine.boot("mem")
        machine.run()
        assert machine.read_slot(ref, 1) == 123
        assert machine.nodes[1].memory.load(0x40) == 123
        assert machine.stats.messages.reads == 1
        assert machine.stats.messages.writes == 1


class TestValidation:
    def test_counter_posting_unknown_thread(self):
        block = Codeblock("bad", frame_size=1)
        block.add_counter("c", 1, "ghost")
        with pytest.raises(TamError):
            block.validate()

    def test_inlet_with_unknown_counter(self):
        block = Codeblock("bad", frame_size=1)
        block.add_inlet(0, counter="ghost")
        with pytest.raises(TamError):
            block.validate()

    def test_inlet_slot_out_of_range(self):
        block = Codeblock("bad", frame_size=1)
        block.add_inlet(0, dest_slots=(5,))
        with pytest.raises(TamError):
            block.validate()

    def test_counter_underflow(self):
        block = Codeblock("c", frame_size=1)
        block.add_thread("t", [StopInstr()])
        block.add_counter("k", 1, "t")
        frame = Frame(block, FrameRef(0, 1))
        assert frame.decrement("k") == "t"
        with pytest.raises(FrameError):
            frame.decrement("k")
