"""Observing the TAM machine: one path, observed or not.

An observed machine runs the same generated code and the same loop as
one with nothing attached; its events come from the nodes' queues
(``TamMachine.attach``), which stay a plain ``deque`` and ``list`` when
nothing is attached.
"""

from collections import Counter, deque

import pytest

import repro.programs.gamteb as gamteb
import repro.programs.matmul as matmul
from repro.errors import TamError
from repro.obs.observer import Observer, observer_of
from repro.obs.tracer import TAM_POST, Tracer
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import FallocInstr, StopInstr
from repro.tam.messages import MsgKind
from repro.tam.runtime import TamMachine
from tam_reference import ReferenceMachine, each_machine, on_machine


class Posts(Observer):
    """Keeps every posted message and counts handle begins and ends."""

    def __init__(self) -> None:
        self.messages = []
        self.handles = Counter()

    def on_tam_post(self, message):
        self.messages.append(message)

    def on_tam_handle_begin(self, node, message):
        self.handles["begin"] += 1

    def on_tam_handle_end(self, node, message):
        self.handles["end"] += 1


def matmul_blocks():
    return [matmul.build_block_codeblock(2, done_inlet=5), matmul.build_driver_codeblock(2)]


def gamteb_blocks():
    return [
        gamteb.build_photon_codeblock(done_inlet=gamteb.PHOTON_DONE_INLET),
        gamteb.build_driver_codeblock(4, 7),
    ]


@pytest.mark.parametrize("blocks", [matmul_blocks, gamteb_blocks], ids=["matmul", "gamteb"])
def test_an_observed_machine_generates_the_same_code(blocks):
    sources = []
    for observer in (None, Tracer()):
        machine = TamMachine(4)
        if observer is not None:
            machine.attach(observer)
        for block in blocks():
            machine.load(block)
        sources.append({name: block.source for name, block in machine._compiled.items()})
    assert len(sources[0]) == 2
    assert sources[0] == sources[1]


def test_an_unobserved_machine_keeps_plain_queues():
    machine = matmul.run_matmul(n=8, nodes=4).machine
    for state in machine.nodes:
        assert type(state.inbox) is deque
        assert type(state.stack) is list
    observed = matmul.run_matmul(n=8, nodes=4, observer=Tracer()).machine
    for state in observed.nodes:
        assert type(state.inbox) is not deque
        assert type(state.stack) is not list


def test_pread_full_replies_are_machine_built_and_read_as_reply(monkeypatch):
    """The observed machine posts the fused loop's own reply tuples;
    the tracer reads them as REPLY, node for node, in the reference's
    order."""
    replies = {}
    for Machine in (ReferenceMachine, TamMachine):
        posts, tracer = Posts(), Tracer(capacity=None)
        run = on_machine(monkeypatch, Machine, matmul.run_matmul)
        mix = run(n=8, nodes=4, observer=observer_of(posts, tracer)).stats.messages
        built = [message for message in posts.messages if not isinstance(message[0], MsgKind)]
        replies[Machine] = [
            (event.ts, event.node)
            for event in tracer
            if event.kind == TAM_POST and event.detail["mkind"] == "REPLY"
        ]
        assert mix.preads_full > 0
        if Machine is TamMachine:
            assert len(built) == mix.preads_full + mix.deferred_readers_satisfied
            assert {message[0].name for message in built} == {"REPLY"}
            assert [message[1] for message in built] == [node for _, node in replies[Machine]]
        else:
            assert built == []
    assert replies[TamMachine] == replies[ReferenceMachine]


@each_machine
def test_a_handle_whose_handler_raises_still_ends(Machine):
    machine = Machine(1)
    posts = Posts()
    machine.attach(posts)
    block = Codeblock("root", frame_size=1)
    block.add_thread("entry", [FallocInstr("missing", 0), StopInstr()])
    block.set_entry("entry")
    machine.load(block)
    machine.boot("root")
    with pytest.raises(TamError, match="unknown codeblock 'missing'"):
        machine.run()
    assert posts.handles == {"begin": 1, "end": 1}
