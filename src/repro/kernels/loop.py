"""The composed message service loop: dispatch and handlers, end to end.

Table 1 prices DISPATCHING and PROCESSING separately; a running node
executes them *composed*: each handler's tail inlines the dispatch stub
(the paper's Section 2.2.3 overlap — "the processing of one message with
the dispatching of the next"), so control flows message to message with
no extra branches.

This module builds that composed loop as one executable sequence per
interface model, runs it against a stream of delivered messages, and
measures steady-state cycles.  Because the loop is built from the very
kernels Table 1 measures, its end-to-end cycle count must equal the sum
of the per-phase table entries — a consistency check the test suite
asserts exactly — and it yields a derived artifact: steady-state message
-handling throughput per model (:mod:`repro.eval.throughput`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Sequence as Seq, Tuple

from repro.errors import EvaluationError
from repro.impls.base import InterfaceModel
from repro.isa.instructions import Instruction, Opcode, Sequence
from repro.kernels import protocol as P
from repro.kernels.harness import (
    IP_BASE_HW,
    IP_BASE_SW,
    _fresh_machine,
    _processing_message,
)
from repro.kernels.sequences import dispatch_kernel, processing_kernel
from repro.nic.dispatch import handler_table_address

LOOP_HANDLERS = ("send0", "send1", "send2", "read", "write")
"""Message kinds the composed loop services (the label-free kernels)."""

SEND_HANDLER_IP = 0x5000
"""The word-1 IP that type-0 stream messages carry (send1 convention)."""


def _relabel(instructions: Seq[Instruction], suffix: str) -> List[Instruction]:
    """Clone instructions with labels and branch targets made unique."""
    out: List[Instruction] = []
    for instr in instructions:
        changes = {}
        if instr.label is not None:
            changes["label"] = f"{instr.label}.{suffix}"
        if instr.target is not None:
            changes["target"] = f"{instr.target}.{suffix}"
        out.append(dc_replace(instr, **changes) if changes else instr)
    return out


def _strip_trailing_halt(instructions: List[Instruction]) -> List[Instruction]:
    while instructions and instructions[-1].opcode is Opcode.HALT:
        instructions = instructions[:-1]
    return instructions


@dataclass
class ServiceLoop:
    """The composed loop for one model, ready to run."""

    model: InterfaceModel
    sequence: Sequence
    handler_entry: Dict[str, int]  # handler name -> instruction index
    dispatch_entry: int

    def resolve_jump(self, target: int):
        """Map dispatch-jump addresses to instruction indices."""
        entry = self._address_map.get(target)
        return entry

    @property
    def _address_map(self) -> Dict[int, int]:
        mapping: Dict[int, int] = {}
        for name, index in self.handler_entry.items():
            for address in _handler_addresses(self.model, name):
                mapping[address] = index
        return mapping


def _handler_addresses(model: InterfaceModel, name: str) -> Tuple[int, ...]:
    """Every jump target that should land in handler ``name``.

    For the optimized models this includes all four boundary-condition
    versions of the dispatch-table slot (Section 2.2.4): these handlers
    neither care about a filling input queue (they are short) nor about
    the output queue beyond what SEND's own policy covers, so — as the
    paper explicitly allows — all four versions are the same code.
    """
    if name.startswith("send"):
        if model.optimized:
            # Type-0 messages carry the handler IP in word 1 when no
            # boundary condition holds; with iafull/oafull the hardware
            # falls back to the table's slot-0 versions (Figure 7).
            return (SEND_HANDLER_IP,) + _all_versions(0, skip_plain=True)
        return (IP_BASE_SW + (P.ID_SEND << P.BASIC_HANDLER_STRIDE_SHIFT),)
    types = {"read": (P.TYPE_READ, P.ID_READ), "write": (P.TYPE_WRITE, P.ID_WRITE)}
    mtype, mid = types[name]
    if model.optimized:
        return _all_versions(mtype)
    return (IP_BASE_SW + (mid << P.BASIC_HANDLER_STRIDE_SHIFT),)


def _all_versions(handler_id: int, skip_plain: bool = False) -> Tuple[int, ...]:
    """The (up to) four iafull/oafull dispatch-table slots of one handler.

    ``skip_plain`` omits the no-condition slot — for handler id 0 that
    slot is the idle handler, which must stay unmapped so an empty queue
    ends the run.
    """
    addresses = []
    for iafull in (False, True):
        for oafull in (False, True):
            if skip_plain and not iafull and not oafull:
                continue
            addresses.append(
                handler_table_address(IP_BASE_HW, handler_id, iafull, oafull)
            )
    return tuple(addresses)


def build_service_loop(
    model: InterfaceModel, handlers: Seq[str] = ("send1", "read", "write")
) -> ServiceLoop:
    """Compose dispatch + the named handlers into one loop sequence.

    Only one ``send<k>`` handler may be included per loop (all type-0
    messages dispatch through one IP).
    """
    sends = [h for h in handlers if h.startswith("send")]
    if len(sends) > 1:
        raise EvaluationError(
            "one send handler per loop: all type-0 messages share one IP"
        )
    for handler in handlers:
        if handler not in LOOP_HANDLERS:
            raise EvaluationError(
                f"{handler!r} cannot join the composed loop (internal labels)"
            )
    instructions: List[Instruction] = []
    dispatch_instrs = dispatch_kernel(model).sequence.instructions
    instructions.extend(_relabel(dispatch_instrs, "entry"))
    handler_entry: Dict[str, int] = {}
    for name in handlers:
        handler_entry[name] = len(instructions)
        body = _strip_trailing_halt(
            list(processing_kernel(name, model).sequence.instructions)
        )
        instructions.extend(_relabel(body, name))
        # Inline the dispatch stub as this handler's tail.
        instructions.extend(_relabel(dispatch_instrs, f"after.{name}"))
    sequence = Sequence(f"service-loop[{model.key}]", instructions)
    return ServiceLoop(model, sequence, handler_entry, dispatch_entry=0)


@dataclass
class StreamMeasurement:
    """Steady-state measurement over one delivered message stream."""

    cycles: int
    instructions: int
    handled: int


def measure_stream(
    model: InterfaceModel, stream: Seq[str], handlers: Seq[str] = ("send1", "read", "write")
) -> StreamMeasurement:
    """Deliver ``stream`` (handler names) and run the composed loop.

    Returns total cycles from first dispatch to the final empty-queue
    dispatch's fall-out.  Functional effects (replies, memory writes) are
    checked by the caller's tests against the interface state.
    """
    if len(stream) > 60:
        raise EvaluationError("streams are capped at 60 messages")
    loop = build_service_loop(model, handlers)
    machine = _fresh_machine(model)
    machine.interface.input_queue.capacity = max(64, len(stream) + 4)
    machine.interface.output_queue.capacity = max(64, len(stream) + 4)
    # The input threshold keeps its default: a long enough stream trips
    # iafull mid-run and dispatch lands in the boundary-condition handler
    # versions, which this loop maps to the same code (Section 2.2.4
    # explicitly allows a handler to ignore the conditions; the four
    # versions cost alike).  The *output* threshold is parked at its
    # maximum: this harness has no network draining the reply queue, and
    # a standing oafull with an empty input queue dispatches the slot-0
    # boundary version forever — handling that needs the full system's
    # drain path, not a cycle-measurement loop.
    machine.interface.control["oq_threshold"] = 31
    basic = not model.optimized
    for name in stream:
        if name not in loop.handler_entry:
            raise EvaluationError(f"stream message {name!r} has no handler")
        message = _processing_message(name, basic)
        if name.startswith("send") and model.optimized:
            # Type-0 messages carry the loop's send-handler IP in word 1.
            message = dc_replace(
                message, words=(message.words[0], SEND_HANDLER_IP) + message.words[2:]
            )
        machine.interface.deliver(message)
    result = machine.run(
        loop.sequence,
        resolve_jump=loop.resolve_jump,
        max_steps=1_000_000,
    )
    handled = machine.interface.stats.nexts
    return StreamMeasurement(
        cycles=result.cycles,
        instructions=result.instructions,
        handled=handled,
    )
