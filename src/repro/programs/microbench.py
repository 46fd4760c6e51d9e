"""A synthetic compute/communicate workload on TAM: the grain study.

The paper's program results hold for its fine-grain TAM workloads and it
explicitly scopes them: "For coarser grained models the message types and
frequencies may be substantially different ... But the results of Table 1
are still relevant" (Section 4.2.2).  :func:`run_grain_sweep_point` lets
the evaluation explore that scoping directly: a compute/communicate loop
with a controllable number of floating-point operations per message, for
the grain-size study (:mod:`repro.eval.grain`).  It is verified (the
driver's completion and report count are checked) and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TamError
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


# ---------------------------------------------------------------------------
# Grain sweep: k flops between consecutive messages.
# ---------------------------------------------------------------------------


def _build_grain_worker(flops_per_message: int, rounds: int) -> Codeblock:
    """A worker that alternates ``flops_per_message`` FMULs with a report."""
    parent, acc, i, cond, self_slot = 0, 1, 2, 3, 4
    block = Codeblock("grain_worker", frame_size=5)
    block.add_inlet(0, dest_slots=(parent,), counter="args")
    block.add_counter("args", 1, "start")
    block.add_thread(
        "start",
        [ConInstr(acc, 1.0), ConInstr(i, 0), ForkInstr("round"), StopInstr()],
    )
    body = []
    for _ in range(flops_per_message):
        body.append(OpInstr(Op.FMUL, acc, acc, Imm(1.0000001)))
    body += [
        SendInstr(frame_slot=parent, inlet=1, values=(acc,)),
        OpInstr(Op.IADD, i, i, Imm(1)),
        OpInstr(Op.LT, cond, i, Imm(rounds)),
        SwitchInstr(cond, "round"),
        StopInstr(),
    ]
    block.add_thread("round", body)
    del self_slot
    return block


def _build_grain_driver(workers: int, rounds: int) -> Codeblock:
    self_slot, child, i, cond, acc_in, total, remaining, done = range(8)
    driver = Codeblock("grain_driver", frame_size=8)
    driver.add_inlet(0, dest_slots=(child,), counter="child_ready")
    driver.add_counter("child_ready", 1, "feed")
    driver.add_inlet(1, dest_slots=(acc_in,), counter="tick")
    driver.add_counter("tick", 1, "accumulate")
    driver.add_thread(
        "entry",
        [
            ConInstr(i, 0),
            ConInstr(total, 0.0),
            ConInstr(remaining, workers * rounds),
            ConInstr(done, 0),
            ForkInstr("spawn_next"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "spawn_next",
        [
            OpInstr(Op.LT, cond, i, Imm(workers)),
            SwitchInstr(cond, "spawn_one"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "spawn_one",
        [
            ResetInstr("child_ready", 1),
            FallocInstr("grain_worker", reply_inlet=0),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "feed",
        [
            SelfInstr(self_slot),
            SendInstr(frame_slot=child, inlet=0, values=(self_slot,)),
            OpInstr(Op.IADD, i, i, Imm(1)),
            ForkInstr("spawn_next"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "accumulate",
        [
            ResetInstr("tick", 1),
            OpInstr(Op.FADD, total, total, acc_in),
            OpInstr(Op.ISUB, remaining, remaining, Imm(1)),
            OpInstr(Op.LE, cond, remaining, Imm(0)),
            SwitchInstr(cond, "finish"),
            StopInstr(),
        ],
    )
    driver.add_thread("finish", [ConInstr(done, 1), StopInstr()])
    driver.set_entry("entry")
    return driver


@dataclass
class GrainPoint:
    flops_per_message: int
    stats: TamStats
    total: float


def run_grain_sweep_point(
    flops_per_message: int,
    workers: int = 8,
    rounds: int = 8,
) -> GrainPoint:
    """One point of the grain study on 8 nodes: k flops between messages."""
    if flops_per_message < 0:
        raise TamError("flops_per_message must be non-negative")
    machine = TamMachine(8)
    machine.load(_build_grain_worker(flops_per_message, rounds))
    machine.load(_build_grain_driver(workers, rounds))
    ref = machine.boot("grain_driver")
    stats = machine.run()
    if not machine.read_slot(ref, 7):
        raise TamError("grain driver never finished")
    total = machine.read_slot(ref, 5)
    expected_reports = workers * rounds
    if stats.messages.sends_by_words[1] < expected_reports:
        raise TamError("grain workers under-reported")
    return GrainPoint(flops_per_message, stats, float(total))
