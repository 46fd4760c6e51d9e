"""Execution harness for the Table 1 kernels.

For each (action, message, model) cell the harness builds a machine in the
right placement, installs the preconditions (pinned registers, request
message, I-structure state, free list), runs the kernel, **checks the
functional postconditions** — the reply really carries the right words, the
I-structure really transitions — and returns the measured cycle count.

The functional checks matter: they guarantee the cycle counts describe
code that actually performs the paper's protocol, not straight-line
filler.

:func:`measure_column` runs every kernel of one model once and keeps the
result, a :class:`Table1Column`: the one price list that Table 1, the
Figure 12 cost tables, the survey and the collectives all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, Tuple, Union

from repro.errors import EvaluationError
from repro.impls.base import InterfaceModel
from repro.isa.machine import Machine, Placement
from repro.isa.registers import resolve
from repro.kernels import protocol as P
from repro.kernels.sequences import (
    BASIC_WIRE_TYPE,
    PROCESSING_CASES,
    SENDING_MESSAGES,
    Kernel,
    dispatch_kernel,
    processing_kernel,
    sending_kernel,
)
from repro.nic.dispatch import handler_table_address
from repro.nic.messages import Message, pack_destination

# Fixed test-bench values.
REMOTE_NODE = 1
LOCAL_NODE = 0
FP_LOCAL = 0x3000
ADDR_LOCAL = 0x1000
FREE_HEAD_ADDR = 0x2000
NODE_ARENA = 0x2100
PREBUILT_NODES = 0x2500
VALUE_A = 0x1111
VALUE_B = 0x2222
MEMORY_WORD = 0x7777
INDEX = 3
#: The address of I-structure element INDEX at ADDR_LOCAL.
ELEMENT_ADDRESS = ADDR_LOCAL + INDEX * P.ELEMENT_BYTES
IP_BASE_HW = 0x0008_0000
IP_BASE_SW = 0x9000


class CheckFailure(EvaluationError):
    """A kernel's functional postcondition did not hold."""


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailure(f"kernel postcondition failed: {what}")


@dataclass
class Measurement:
    """Measured cycles for one Table 1 cell."""

    cycles: int
    instructions: int
    stall_cycles: int


def _fresh_machine(model: InterfaceModel) -> Machine:
    machine = model.make_machine()
    machine.interface.ip_base = IP_BASE_HW
    for name, value in (
        ("fp", pack_destination(REMOTE_NODE, FP_LOCAL)),
        ("a", pack_destination(REMOTE_NODE, ADDR_LOCAL)),
        ("v", VALUE_A),
        ("v2", VALUE_B),
        ("x", INDEX),
        ("send_id", P.ID_SEND),
        ("heap", FREE_HEAD_ADDR),
        ("ip_base", IP_BASE_SW),
    ):
        machine.registers.write(name, value)
    # Free list: three chained nodes, head pointer in memory.
    machine.memory.store(FREE_HEAD_ADDR, NODE_ARENA)
    machine.memory.store(NODE_ARENA, NODE_ARENA + P.NODE_BYTES)
    machine.memory.store(NODE_ARENA + P.NODE_BYTES, NODE_ARENA + 2 * P.NODE_BYTES)
    machine.memory.store(NODE_ARENA + 2 * P.NODE_BYTES, 0)
    return machine


def _run(machine: Machine, kernel: Kernel) -> Measurement:
    for out_reg, src in kernel.preload_outputs:
        machine.interface.write_output(
            int(out_reg[1]), machine.registers.read(src)
        )
    result = machine.run(kernel.sequence)
    cycles = result.cycles
    if kernel.final_use is not None:
        cycles += result.tail_stall(resolve(kernel.final_use))
    if kernel.context_send is not None:
        mode, mtype = kernel.context_send
        machine.interface.send(mtype, mode)
    return Measurement(cycles, result.instructions, result.stall_cycles)


# ---------------------------------------------------------------------------
# SENDING.
# ---------------------------------------------------------------------------

_EXPECTED_WORDS = {
    "send0": lambda: {0: pack_destination(REMOTE_NODE, FP_LOCAL), 1: P.REPLY_IP},
    "send1": lambda: {
        0: pack_destination(REMOTE_NODE, FP_LOCAL),
        1: P.REPLY_IP,
        2: VALUE_A,
    },
    "send2": lambda: {
        0: pack_destination(REMOTE_NODE, FP_LOCAL),
        1: P.REPLY_IP,
        2: VALUE_A,
        3: VALUE_B,
    },
    "read": lambda: {
        0: pack_destination(REMOTE_NODE, ADDR_LOCAL),
        1: pack_destination(REMOTE_NODE, FP_LOCAL),
        2: P.REPLY_IP,
    },
    "write": lambda: {0: pack_destination(REMOTE_NODE, ADDR_LOCAL), 1: VALUE_A},
    "pread": lambda: {
        0: pack_destination(REMOTE_NODE, ADDR_LOCAL),
        1: pack_destination(REMOTE_NODE, FP_LOCAL),
        2: P.REPLY_IP,
        3: INDEX,
    },
    "pwrite": lambda: {
        0: pack_destination(REMOTE_NODE, ADDR_LOCAL),
        1: INDEX,
        2: VALUE_A,
    },
}

_OPT_TYPES = {
    "send0": P.TYPE_SEND,
    "send1": P.TYPE_SEND,
    "send2": P.TYPE_SEND,
    "read": P.TYPE_READ,
    "write": P.TYPE_WRITE,
    "pread": P.TYPE_PREAD,
    "pwrite": P.TYPE_PWRITE,
}

_BASIC_IDS = {
    "send0": P.ID_SEND,
    "send1": P.ID_SEND,
    "send2": P.ID_SEND,
    "read": P.ID_READ,
    "write": P.ID_WRITE,
    "pread": P.ID_PREAD,
    "pwrite": P.ID_PWRITE,
}


def measure_sending(
    message: str, model: InterfaceModel, variant: str = "worst"
) -> Measurement:
    """Run one SENDING kernel and verify the transmitted message."""
    machine = _fresh_machine(model)
    kernel = sending_kernel(message, model, variant)
    measurement = _run(machine, kernel)
    sent = machine.interface.transmit()
    _check(sent is not None, f"{kernel.name}: nothing was sent")
    _check(
        sent.destination == REMOTE_NODE,
        f"{kernel.name}: wrong destination {sent.destination}",
    )
    if model.optimized:
        _check(
            sent.mtype == _OPT_TYPES[message],
            f"{kernel.name}: wrong type {sent.mtype}",
        )
    else:
        _check(
            sent.word(4) == _BASIC_IDS[message],
            f"{kernel.name}: wrong id {sent.word(4):#x}",
        )
    for index, value in _EXPECTED_WORDS[message]().items():
        _check(
            sent.word(index) == value,
            f"{kernel.name}: word {index} is {sent.word(index):#x}, "
            f"expected {value:#x}",
        )
    return measurement


# ---------------------------------------------------------------------------
# DISPATCHING.
# ---------------------------------------------------------------------------


def _read_request(basic: bool) -> Message:
    words = (
        pack_destination(LOCAL_NODE, ADDR_LOCAL),
        pack_destination(REMOTE_NODE, FP_LOCAL),
        P.REPLY_IP,
        0,
        P.ID_READ if basic else 0,
    )
    return Message(BASIC_WIRE_TYPE if basic else P.TYPE_READ, words)


def measure_dispatch(model: InterfaceModel) -> Measurement:
    """Run the dispatch kernel against an arrived Read request.

    Verifies the jump lands on the Read handler's address under the
    model's dispatch convention (hardware MsgIp table for optimized,
    software ``IpBase + (id << 4)`` for basic).
    """
    machine = _fresh_machine(model)
    basic = not model.optimized
    machine.interface.deliver(_read_request(basic=basic))
    kernel = dispatch_kernel(model)
    for out_reg, src in kernel.preload_outputs:
        machine.interface.write_output(int(out_reg[1]), machine.registers.read(src))
    result = machine.run(kernel.sequence)
    if basic:
        expected = IP_BASE_SW + (P.ID_READ << P.BASIC_HANDLER_STRIDE_SHIFT)
    else:
        expected = handler_table_address(IP_BASE_HW, P.TYPE_READ)
    _check(
        result.jump_target == expected,
        f"{kernel.name}: dispatched to {result.jump_target:#x}, "
        f"expected {expected:#x}",
    )
    return Measurement(result.cycles, result.instructions, result.stall_cycles)


# ---------------------------------------------------------------------------
# PROCESSING.
# ---------------------------------------------------------------------------


def _processing_message(case: str, basic: bool) -> Message:
    """The arriving message that PROCESSING kernel ``case`` handles."""
    if case.startswith("send"):
        nwords = int(case[-1])
        payload = [P.REPLY_IP, VALUE_A, VALUE_B][: nwords + 1]
        words = [pack_destination(LOCAL_NODE, FP_LOCAL)] + payload
        words += [0] * (3 - len(payload))
        words.append(P.ID_SEND if basic else 0)
        return Message(BASIC_WIRE_TYPE if basic else P.TYPE_SEND, tuple(words))
    if case == "read":
        return _read_request(basic=basic)
    if case == "write":
        return Message(
            BASIC_WIRE_TYPE if basic else P.TYPE_WRITE,
            (
                pack_destination(LOCAL_NODE, ADDR_LOCAL),
                VALUE_A,
                0,
                0,
                P.ID_WRITE if basic else 0,
            ),
        )
    if case.startswith("pread"):
        return Message(
            BASIC_WIRE_TYPE if basic else P.TYPE_PREAD,
            (
                pack_destination(LOCAL_NODE, ADDR_LOCAL),
                pack_destination(REMOTE_NODE, FP_LOCAL),
                P.REPLY_IP,
                INDEX,
                P.ID_PREAD if basic else 0,
            ),
        )
    return Message(  # pwrite
        BASIC_WIRE_TYPE if basic else P.TYPE_PWRITE,
        (
            pack_destination(LOCAL_NODE, ADDR_LOCAL),
            INDEX,
            VALUE_A,
            0,
            P.ID_PWRITE if basic else 0,
        ),
    )


def _prebuild_deferred_chain(machine: Machine, n: int) -> List[int]:
    """Build an ``n``-node deferred-reader chain; returns node addresses."""
    addresses = [PREBUILT_NODES + i * P.NODE_BYTES for i in range(n)]
    for i, addr in enumerate(addresses):
        machine.memory.store(
            addr + P.NODE_FP_OFFSET, pack_destination(REMOTE_NODE, FP_LOCAL + 16 * i)
        )
        machine.memory.store(addr + P.NODE_IP_OFFSET, P.REPLY_IP + 16 * i)
        nxt = addresses[i + 1] if i + 1 < n else 0
        machine.memory.store(addr + P.NODE_NEXT_OFFSET, nxt)
    return addresses


def measure_processing(
    case: str, model: InterfaceModel, deferred_readers: int = 1
) -> Measurement:
    """Run one PROCESSING kernel and verify its effects."""
    machine = _fresh_machine(model)
    basic = not model.optimized
    # Element preconditions.
    if case == "read":
        machine.memory.store(ADDR_LOCAL, MEMORY_WORD)
    elif case == "pread_full":
        machine.memory.store(ELEMENT_ADDRESS + P.TAG_OFFSET, P.TAG_FULL)
        machine.memory.store(ELEMENT_ADDRESS + P.VALUE_OFFSET, MEMORY_WORD)
    elif case == "pread_empty":
        machine.memory.store(ELEMENT_ADDRESS + P.TAG_OFFSET, P.TAG_EMPTY)
    elif case == "pread_deferred":
        chain = _prebuild_deferred_chain(machine, 1)
        machine.memory.store(ELEMENT_ADDRESS + P.TAG_OFFSET, chain[0])
    elif case == "pwrite_empty":
        machine.memory.store(ELEMENT_ADDRESS + P.TAG_OFFSET, P.TAG_EMPTY)
    elif case == "pwrite_deferred":
        chain = _prebuild_deferred_chain(machine, deferred_readers)
        machine.memory.store(ELEMENT_ADDRESS + P.TAG_OFFSET, chain[0])
    machine.interface.deliver(_processing_message(case, basic))
    kernel = processing_kernel(case, model)
    measurement = _run(machine, kernel)
    _verify_processing(machine, case, basic, deferred_readers)
    return measurement


def _verify_processing(
    machine: Machine, case: str, basic: bool, deferred_readers: int
) -> None:
    ni = machine.interface
    mem = machine.memory
    name = f"proc:{case}"
    _check(not ni.msg_valid, f"{name}: NEXT was not issued")
    if case == "send0":
        _check(
            machine.registers.read("fp") == pack_destination(LOCAL_NODE, FP_LOCAL),
            f"{name}: thread FP not taken",
        )
    elif case == "send1":
        _check(mem.load(FP_LOCAL) == VALUE_A, f"{name}: word 0 not banked")
    elif case == "send2":
        _check(mem.load(FP_LOCAL) == VALUE_A, f"{name}: word 0 not banked")
        _check(mem.load(FP_LOCAL + 4) == VALUE_B, f"{name}: word 1 not banked")
    elif case in ("read", "pread_full"):
        reply = ni.transmit()
        _check(reply is not None, f"{name}: no reply sent")
        _check(
            reply.destination == REMOTE_NODE, f"{name}: reply to wrong node"
        )
        _check(
            reply.word(0) == pack_destination(REMOTE_NODE, FP_LOCAL),
            f"{name}: reply FP wrong",
        )
        _check(reply.word(1) == P.REPLY_IP, f"{name}: reply IP wrong")
        _check(reply.word(2) == MEMORY_WORD, f"{name}: reply value wrong")
        if basic:
            _check(reply.word(4) == P.ID_SEND, f"{name}: reply id wrong")
        else:
            _check(reply.mtype == P.TYPE_SEND, f"{name}: reply type wrong")
    elif case == "write":
        _check(mem.load(ADDR_LOCAL) == VALUE_A, f"{name}: value not written")
    elif case in ("pread_empty", "pread_deferred"):
        node = mem.load(ELEMENT_ADDRESS + P.TAG_OFFSET)
        _check(node >= P.NODE_AREA_MIN, f"{name}: reader not deferred")
        _check(
            mem.load(node + P.NODE_FP_OFFSET)
            == pack_destination(REMOTE_NODE, FP_LOCAL),
            f"{name}: deferred FP wrong",
        )
        _check(
            mem.load(node + P.NODE_IP_OFFSET) == P.REPLY_IP,
            f"{name}: deferred IP wrong",
        )
        if case == "pread_deferred":
            _check(
                mem.load(node + P.NODE_NEXT_OFFSET) == PREBUILT_NODES,
                f"{name}: old list not chained",
            )
        else:
            _check(
                mem.load(node + P.NODE_NEXT_OFFSET) == 0,
                f"{name}: chain should end",
            )
        _check(ni.peek_outgoing() is None, f"{name}: unexpected reply")
    elif case == "pwrite_empty":
        _check(mem.load(ELEMENT_ADDRESS + P.TAG_OFFSET) == P.TAG_FULL, f"{name}: not full")
        _check(
            mem.load(ELEMENT_ADDRESS + P.VALUE_OFFSET) == VALUE_A,
            f"{name}: value not written",
        )
    elif case == "pwrite_deferred":
        _check(mem.load(ELEMENT_ADDRESS + P.TAG_OFFSET) == P.TAG_FULL, f"{name}: not full")
        _check(
            mem.load(ELEMENT_ADDRESS + P.VALUE_OFFSET) == VALUE_A,
            f"{name}: value not written",
        )
        for i in range(deferred_readers):
            reply = ni.transmit()
            _check(reply is not None, f"{name}: reader {i} not satisfied")
            _check(
                reply.word(0) == pack_destination(REMOTE_NODE, FP_LOCAL + 16 * i),
                f"{name}: reader {i} FP wrong",
            )
            _check(
                reply.word(1) == P.REPLY_IP + 16 * i,
                f"{name}: reader {i} IP wrong",
            )
            _check(
                reply.word(2) == VALUE_A, f"{name}: reader {i} value wrong"
            )
        _check(ni.transmit() is None, f"{name}: too many replies")


def measure_pwrite_deferred_line(
    model: InterfaceModel, counts: Tuple[int, ...] = (1, 2, 3)
) -> Tuple[int, int]:
    """Fit ``base + slope * n`` to the PWrite(deferred) measurements."""
    cycles = [
        measure_processing("pwrite_deferred", model, deferred_readers=n).cycles
        for n in counts
    ]
    slopes = {
        (cycles[i + 1] - cycles[i]) // (counts[i + 1] - counts[i])
        for i in range(len(counts) - 1)
    }
    if len(slopes) != 1:
        raise EvaluationError(
            f"PWrite(deferred) is not affine in n under {model.key}: {cycles}"
        )
    slope = slopes.pop()
    base = cycles[0] - slope * counts[0]
    return base, slope


# ---------------------------------------------------------------------------
# One model's column of Table 1.
# ---------------------------------------------------------------------------

Cell = Union[int, Tuple[int, int]]
"""A Table 1 cell: cycles, a SENDING range ``(best, worst)``, or the
PWrite(deferred) line ``(base, slope)``."""


@dataclass(frozen=True)
class Table1Column:
    """Every Table 1 cell of one interface model.

    ``sending`` holds a :data:`Cell` per message: the register
    placement's best and worst schedules where they differ.
    ``processing`` holds every case but PWrite(deferred), whose cost is
    the line ``base + slope * n`` in ``pwrite_deferred``.
    """

    sending: Mapping[str, Cell]
    dispatch: int
    processing: Mapping[str, int]
    pwrite_deferred: Tuple[int, int]

    def worst_sending(self, message: str) -> int:
        """SENDING cycles for ``message``, the worst end of a range."""
        cell = self.sending[message]
        return cell[1] if isinstance(cell, tuple) else cell


@lru_cache(maxsize=None)
def measure_column(model: InterfaceModel) -> Table1Column:
    """Run every Table 1 kernel under ``model``, once per process."""
    sending = {}
    for message in SENDING_MESSAGES:
        worst = measure_sending(message, model, "worst").cycles
        best = (
            measure_sending(message, model, "best").cycles
            if model.placement is Placement.REGISTER
            else worst
        )
        sending[message] = (best, worst) if best != worst else worst
    processing = {
        case: measure_processing(case, model).cycles
        for case in PROCESSING_CASES
        if case != "pwrite_deferred"
    }
    return Table1Column(
        sending=MappingProxyType(sending),
        dispatch=measure_dispatch(model).cycles,
        processing=MappingProxyType(processing),
        pwrite_deferred=measure_pwrite_deferred_line(model),
    )
