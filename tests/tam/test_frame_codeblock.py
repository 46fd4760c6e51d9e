"""Direct tests for the reference ``Frame``, its counters, and codeblocks."""

import pytest

from repro.errors import FrameError, TamError
from repro.tam.codeblock import Codeblock, CounterSpec
from repro.tam.frame import FrameRef
from repro.tam.instructions import ConInstr, SelfInstr, SendInstr, StopInstr
from tam_reference import Frame, each_machine


def block_with_counter(count: int = 2) -> Codeblock:
    block = Codeblock("b", frame_size=4)
    block.add_thread("go", [StopInstr()])
    block.add_counter("c", count, "go")
    return block


class TestFrame:
    def test_slots_start_zero(self):
        frame = Frame(block_with_counter(), FrameRef(0, 1))
        assert frame.read(0) == 0

    def test_write_read(self):
        frame = Frame(block_with_counter(), FrameRef(0, 1))
        frame.write(2, 3.5)
        assert frame.read(2) == 3.5

    def test_slot_bounds(self):
        frame = Frame(block_with_counter(), FrameRef(0, 1))
        with pytest.raises(FrameError):
            frame.read(4)
        with pytest.raises(FrameError):
            frame.write(-1, 0)

    def test_counter_posts_at_zero(self):
        frame = Frame(block_with_counter(2), FrameRef(0, 1))
        assert frame.decrement("c") is None
        assert frame.decrement("c") == "go"

    def test_unknown_counter(self):
        frame = Frame(block_with_counter(), FrameRef(0, 1))
        with pytest.raises(FrameError):
            frame.decrement("nope")
        with pytest.raises(FrameError):
            frame.reset("nope", 1)

    def test_reset_rearms(self):
        frame = Frame(block_with_counter(1), FrameRef(0, 1))
        assert frame.decrement("c") == "go"
        frame.reset("c", 1)
        assert frame.decrement("c") == "go"

    def test_reset_negative_rejected(self):
        frame = Frame(block_with_counter(), FrameRef(0, 1))
        with pytest.raises(FrameError):
            frame.reset("c", -1)

    def test_counter_value(self):
        frame = Frame(block_with_counter(3), FrameRef(0, 1))
        frame.decrement("c")
        assert frame.counter_value("c") == 2


class TestCodeblockStructure:
    def test_duplicate_thread_rejected(self):
        block = Codeblock("b", frame_size=1)
        block.add_thread("t", [StopInstr()])
        with pytest.raises(TamError):
            block.add_thread("t", [StopInstr()])

    def test_duplicate_inlet_rejected(self):
        block = Codeblock("b", frame_size=1)
        block.add_inlet(0)
        with pytest.raises(TamError):
            block.add_inlet(0)

    def test_duplicate_counter_rejected(self):
        block = Codeblock("b", frame_size=1)
        block.add_thread("t", [StopInstr()])
        block.add_counter("c", 1, "t")
        with pytest.raises(TamError):
            block.add_counter("c", 1, "t")

    def test_negative_counter_rejected(self):
        with pytest.raises(TamError):
            CounterSpec(-1, "t")

    def test_unknown_thread_lookup(self):
        block = Codeblock("b", frame_size=1)
        with pytest.raises(TamError):
            block.thread("ghost")

    @each_machine
    def test_unknown_inlet_lookup(self, Machine):
        """A one-value SEND to an inlet the codeblock lacks fails when
        it is delivered, with the same message on both machines."""
        block = Codeblock("b", frame_size=2)
        block.add_inlet(0, dest_slots=(1,))
        block.add_thread(
            "go",
            [
                SelfInstr(0),
                ConInstr(1, 5),
                SendInstr(frame_slot=0, inlet=7, values=(1,)),
                StopInstr(),
            ],
        )
        block.set_entry("go")
        machine = Machine(1)
        machine.load(block)
        machine.boot("b")
        with pytest.raises(TamError) as raised:
            machine.run()
        assert str(raised.value) == "codeblock 'b' has no inlet 7"

    def test_entry_must_exist(self):
        block = Codeblock("b", frame_size=1)
        block.set_entry("ghost")
        with pytest.raises(TamError):
            block.validate()

    def test_chaining(self):
        block = (
            Codeblock("b", frame_size=2)
            .add_thread("t", [StopInstr()])
            .add_inlet(0, dest_slots=(1,), counter="c")
            .add_counter("c", 1, "t")
            .set_entry("t")
        )
        block.validate()
        assert block.entry == "t"
