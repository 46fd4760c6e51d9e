"""N-Queens on TAM: a Send-dominated divide-and-conquer workload.

The paper reports two programs and notes "the rest give similar results"
(Section 4.2).  Queens complements the two reproduced benchmarks with a
contrasting message mix: where matmul and Gamteb are presence-bit heavy,
a search tree is almost pure procedure-call traffic — FALLOCs and small
Sends — the mix for which the paper's dispatch and type optimizations do
the most work.

Structure: each activation owns one partial placement (encoded as packed
column positions) and one row to extend.  It tries every column; each
safe extension becomes a child activation (FALLOC + argument Sends); a
full placement counts as one solution.  Solution counts aggregate up the
spawn tree exactly like Gamteb's tallies, so termination is race-free and
the total is exact.

Board state is packed into integers (4 bits per column) so it travels in
single message words; the safety test is TAM integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import TamError
from repro.obs.observer import Observer
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import (
    ConInstr,
    FallocInstr,
    ForkInstr,
    Imm,
    Op,
    OpInstr,
    ResetInstr,
    SelfInstr,
    SendInstr,
    StopInstr,
    SwitchInstr,
)
from repro.tam.runtime import TamMachine
from repro.tam.stats import TamStats
from repro.programs.support import Slots

MAX_N = 7
"""4-bit column packing bounds the board size."""

DONE_INLET = 3
"""Tally inlet number, shared by workers and the driver."""


def reference_count(n: int) -> int:
    """Host-side N-Queens count for verification."""

    def place(row: int, cols: tuple) -> int:
        if row == n:
            return 1
        total = 0
        for col in range(n):
            if all(
                col != c and abs(col - c) != row - r
                for r, c in enumerate(cols)
            ):
                total += place(row + 1, cols + (col,))
        return total

    return place(0, ())


def build_worker(n: int) -> Codeblock:
    """One activation: extend the placement in one row.

    Frame layout: parent ref, packed board, row, loop column, counters.
    The packed board stores column ``c`` of row ``r`` in bits ``4r..4r+3``
    offset by 1 (so 0 means "no queen"), letting the safety check unpack
    with shifts and masks — all plain TAM integer ops.
    """
    (
        parent,
        board,
        row,
        col,
        kids,
        solutions,
        dead,
        child,
        child_board,
        ca,
        t,
        u,
        r2,
        diff,
        cond,
        safe,
        self_slot,
    ) = range(17)

    worker = Codeblock("queens_worker", frame_size=17)
    worker.add_inlet(0, dest_slots=(parent,), counter="args")
    worker.add_inlet(1, dest_slots=(board, row), counter="args")
    worker.add_counter("args", 2, "start")
    worker.add_inlet(2, dest_slots=(child,), counter="kid_ready")
    worker.add_counter("kid_ready", 1, "feed_kid")
    worker.add_inlet(DONE_INLET, dest_slots=(ca,), counter="kid_done")
    worker.add_counter("kid_done", 1, "merge")

    worker.add_thread(
        "start",
        [
            ConInstr(kids, 0),
            ConInstr(solutions, 0),
            ConInstr(dead, 0),
            ConInstr(col, 0),
            ForkInstr("try_col"),
            StopInstr(),
        ],
    )

    # try_col: if col == n, this row is exhausted -> die; else test safety.
    worker.add_thread(
        "try_col",
        [
            OpInstr(Op.LT, cond, col, Imm(n)),
            SwitchInstr(cond, "check", "die"),
            StopInstr(),
        ],
    )

    # check: scan rows 0..row-1 of the packed board for conflicts, peeling
    # 4 bits per iteration with constant divisions (TAM has no variable
    # shift).  safe starts 1; any column or diagonal hit clears it.
    worker.add_thread(
        "check",
        [
            ConInstr(safe, 1),
            ConInstr(r2, 0),
            OpInstr(Op.IADD, u, board, Imm(0)),  # u = remaining packed board
            ForkInstr("check_row"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "check_row",
        [
            OpInstr(Op.LT, cond, r2, row),
            SwitchInstr(cond, "check_one", "resolve"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "check_one",
        [
            # t = column of row r2: low 4 bits of u, minus the +1 offset.
            OpInstr(Op.IDIV, diff, u, Imm(16)),
            OpInstr(Op.IMUL, t, diff, Imm(16)),
            OpInstr(Op.ISUB, t, u, t),  # t = u % 16
            OpInstr(Op.IADD, u, diff, Imm(0)),  # u //= 16
            OpInstr(Op.ISUB, t, t, Imm(1)),  # stored col
            # Column conflict.
            OpInstr(Op.EQ, cond, t, col),
            SwitchInstr(cond, "unsafe", "check_diag"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "check_diag",
        [
            # |col - t| == row - r2 ?
            OpInstr(Op.ISUB, diff, col, t),
            OpInstr(Op.IMUL, cond, diff, diff),
            OpInstr(Op.ISUB, t, row, r2),
            OpInstr(Op.IMUL, t, t, t),
            OpInstr(Op.EQ, cond, cond, t),
            SwitchInstr(cond, "unsafe", "next_row"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "next_row",
        [
            OpInstr(Op.IADD, r2, r2, Imm(1)),
            ForkInstr("check_row"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "unsafe", [ConInstr(safe, 0), ForkInstr("resolve"), StopInstr()]
    )

    # resolve: if safe, either count a solution (last row) or spawn a child.
    worker.add_thread(
        "resolve",
        [
            SwitchInstr(safe, "place", "advance"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "place",
        [
            OpInstr(Op.IADD, t, row, Imm(1)),
            OpInstr(Op.LT, cond, t, Imm(n)),
            SwitchInstr(cond, "spawn", "solution"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "solution",
        [
            OpInstr(Op.IADD, solutions, solutions, Imm(1)),
            ForkInstr("advance"),
            StopInstr(),
        ],
    )
    # spawn: child_board = board | (col+1) << 4*row — computed by
    # multiply-add since the shift amount 4*row needs 16^row; rows are
    # processed in order, so the packed slot for this row is the lowest
    # empty one: child_board = board + (col+1) * 16^row.  The power is
    # accumulated in a loop.
    worker.add_thread(
        "spawn",
        [
            OpInstr(Op.IADD, kids, kids, Imm(1)),
            ConInstr(t, 0),
            ConInstr(child_board, 1),
            ForkInstr("spawn_pow"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "spawn_pow",
        [
            OpInstr(Op.LT, cond, t, row),
            SwitchInstr(cond, "spawn_pow_step", "spawn_go"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "spawn_pow_step",
        [
            OpInstr(Op.IMUL, child_board, child_board, Imm(16)),
            OpInstr(Op.IADD, t, t, Imm(1)),
            ForkInstr("spawn_pow"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "spawn_go",
        [
            # child_board currently holds 16^row.
            OpInstr(Op.IADD, u, col, Imm(1)),
            OpInstr(Op.IMUL, child_board, child_board, u),
            OpInstr(Op.IADD, child_board, child_board, board),
            ResetInstr("kid_ready", 1),
            FallocInstr("queens_worker", reply_inlet=2),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "feed_kid",
        [
            SelfInstr(self_slot),
            SendInstr(frame_slot=child, inlet=0, values=(self_slot,)),
            OpInstr(Op.IADD, t, row, Imm(1)),
            SendInstr(frame_slot=child, inlet=1, values=(child_board, t)),
            ForkInstr("advance"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "advance",
        [
            OpInstr(Op.IADD, col, col, Imm(1)),
            ForkInstr("try_col"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "die",
        [
            ConInstr(dead, 1),
            OpInstr(Op.LE, cond, kids, Imm(0)),
            SwitchInstr(cond, "report"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "merge",
        [
            ResetInstr("kid_done", 1),
            OpInstr(Op.IADD, solutions, solutions, ca),
            OpInstr(Op.ISUB, kids, kids, Imm(1)),
            OpInstr(Op.LE, cond, kids, Imm(0)),
            OpInstr(Op.AND, cond, cond, dead),
            SwitchInstr(cond, "report"),
            StopInstr(),
        ],
    )
    worker.add_thread(
        "report",
        [
            SendInstr(frame_slot=parent, inlet=DONE_INLET, values=(solutions,)),
            StopInstr(),
        ],
    )
    return worker


def build_driver() -> Tuple[Codeblock, Slots]:
    """The driver, with its frame-slot numbering."""
    s = Slots()
    self_slot, child, total, ca, done = map(s.one, ("self", "child", "total", "ca", "done"))
    driver = Codeblock("queens_driver", frame_size=s.size)
    driver.add_inlet(2, dest_slots=(child,), counter="kid_ready")
    driver.add_counter("kid_ready", 1, "feed")
    driver.add_inlet(DONE_INLET, dest_slots=(ca,), counter="root_done")
    driver.add_counter("root_done", 1, "finish")
    driver.add_thread(
        "entry",
        [
            ConInstr(total, 0),
            ConInstr(done, 0),
            FallocInstr("queens_worker", reply_inlet=2),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "feed",
        [
            SelfInstr(self_slot),
            SendInstr(frame_slot=child, inlet=0, values=(self_slot,)),
            ConInstr(total, 0),  # reuse: (board=0, row=0) needs two zeros
            SendInstr(frame_slot=child, inlet=1, values=(total, total)),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "finish",
        [
            OpInstr(Op.IADD, total, ca, Imm(0)),
            ConInstr(done, 1),
            StopInstr(),
        ],
    )
    driver.set_entry("entry")
    return driver, s


@dataclass
class QueensResult:
    n: int
    nodes: int
    solutions: int
    stats: TamStats
    machine: TamMachine

    def verify(self) -> None:
        expected = reference_count(self.n)
        if self.solutions != expected:
            raise TamError(
                f"{self.n}-queens found {self.solutions}, expected {expected}"
            )


def run_queens(
    n: int = 6,
    nodes: int = 16,
    observer: Optional[Observer] = None,
) -> QueensResult:
    """Count the N-Queens solutions with one activation per tree node and
    check the count against the known one (:meth:`QueensResult.verify`).

    ``observer`` is attached to the machine (:meth:`TamMachine.attach`).
    """
    if n < 1 or n > MAX_N:
        raise TamError(f"board size {n} outside 1..{MAX_N}")
    machine = TamMachine(nodes)
    if observer is not None:
        machine.attach(observer)
    driver, slots = build_driver()
    machine.load(build_worker(n))
    machine.load(driver)
    ref = machine.boot("queens_driver")
    stats = machine.run()
    if not machine.read_slot(ref, slots["done"]):
        raise TamError("queens driver never finished")
    result = QueensResult(
        n=n,
        nodes=nodes,
        solutions=int(machine.read_slot(ref, slots["total"])),
        stats=stats,
        machine=machine,
    )
    result.verify()
    return result
