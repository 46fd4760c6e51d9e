"""From TAM execution statistics to 88100 cycle counts (Figure 12).

The paper computed Figure 12 "by simulating each program and replacing the
dynamic instruction count of each TAM intermediate instruction by the
appropriate number of RISC instructions".  This module does the same:

* non-message TAM instructions carry fixed per-class cycle costs
  (identical across interface models — they form the *compute* bar);
* every message is priced from Table 1: SENDING at the sender,
  DISPATCHING plus PROCESSING at the receiver, and for operations that
  return a value, the reply's own dispatch and Send-processing at the
  requester.

By default the Table 1 prices are the *measured* ones (each model's
column from :func:`repro.kernels.harness.measure_column`), keeping the
whole pipeline self-consistent; the paper's published prices can be
substituted to see how the authors' more expensive presence-bit runtime
shifts the bars.  The midpoint rule for a register-placement SENDING
range (:func:`_range_cost`) lives here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.impls.base import ALL_MODELS, InterfaceModel, model_by_key
from repro.tam.instructions import Kind
from repro.tam.stats import TamStats

# Cycle cost of each non-message TAM instruction class on the 88100.
# Message-issuing classes cost nothing here: their cycles are the Table 1
# SENDING entries, charged per message below.
INSTRUCTION_CYCLES: Dict[Kind, int] = {
    Kind.CON: 1,
    Kind.MOV: 1,
    Kind.IOP: 1,
    Kind.FOP: 2,  # the 88100's FP pipeline; matches the paper's RISC flavour
    # TAM control: continuation-vector pushes/pops touch frame memory; the
    # TAM papers report a few cycles each on commodity RISC processors.
    Kind.FORK: 3,
    Kind.SWITCH: 3,
    Kind.STOP: 3,
    Kind.RESET: 1,
    # Runtime work beyond the messages themselves (allocator bookkeeping).
    Kind.FALLOC: 8,
    Kind.IALLOC: 8,
    # Message-issuing instructions are priced by Table 1's SENDING rows.
    Kind.SEND: 0,
    Kind.IFETCH: 0,
    Kind.ISTORE: 0,
    Kind.READ: 0,
    Kind.WRITE: 0,
}


@dataclass(frozen=True)
class MessageCostTable:
    """Per-message-type cycle prices for one interface model."""

    model_key: str
    sending: Dict[str, int]
    dispatch: int
    processing: Dict[str, int]
    pwrite_deferred_base: int
    pwrite_deferred_slope: int
    source: str  # "measured" or "paper"


def _range_cost(cell) -> int:
    """Collapse a register-placement range to one price.

    The paper: "We expect that the cost will typically be in the low to
    middle part of this range" — we take the midpoint rounded down.
    """
    if isinstance(cell, tuple):
        return (cell[0] + cell[1]) // 2
    return cell


@lru_cache(maxsize=None)
def measured_cost_table(model: InterfaceModel) -> MessageCostTable:
    """Price table from ``model``'s measured Table 1 column."""
    from repro.kernels.harness import measure_column

    column = measure_column(model)
    base, slope = column.pwrite_deferred
    return MessageCostTable(
        model_key=model.key,
        sending={message: _range_cost(cell) for message, cell in column.sending.items()},
        dispatch=column.dispatch,
        processing=dict(column.processing),
        pwrite_deferred_base=base,
        pwrite_deferred_slope=slope,
        source="measured",
    )


@lru_cache(maxsize=None)
def paper_cost_table(model_key: str) -> MessageCostTable:
    """Price table from the paper's published Table 1."""
    from repro.kernels import expected as X

    model_by_key(model_key)  # validate
    sending = {
        message: _range_cost(row[model_key])
        for message, row in X.SENDING_PAPER.items()
    }
    processing = {
        case: row[model_key] for case, row in X.PROCESSING_PAPER.items()
    }
    base, slope = X.PWRITE_DEFERRED_PAPER[model_key]
    return MessageCostTable(
        model_key=model_key,
        sending=sending,
        dispatch=X.DISPATCH_PAPER[model_key],
        processing=processing,
        pwrite_deferred_base=base,
        pwrite_deferred_slope=slope,
        source="paper",
    )


def cost_table(model: InterfaceModel, source: str = "measured") -> MessageCostTable:
    if source == "measured":
        return measured_cost_table(model)
    if source == "paper":
        return paper_cost_table(model.key)
    raise ValueError(f"unknown cost source {source!r}")


@dataclass(frozen=True)
class CycleBreakdown:
    """One Figure 12 bar: compute / dispatch / other communication."""

    model_key: str
    compute: int
    dispatch: int
    communication: int
    source: str

    @property
    def total(self) -> int:
        return self.compute + self.dispatch + self.communication

    @property
    def overhead(self) -> int:
        """All communication-related cycles (dispatch included)."""
        return self.dispatch + self.communication

    @property
    def overhead_fraction(self) -> float:
        return self.overhead / self.total if self.total else 0.0


def breakdown(
    stats: TamStats,
    model: InterfaceModel,
    table: Optional[MessageCostTable] = None,
    source: str = "measured",
) -> CycleBreakdown:
    """Price one program run under one interface model."""
    table = table or cost_table(model, source)
    mix = stats.messages
    compute = sum(
        INSTRUCTION_CYCLES[kind] * count
        for kind, count in stats.instructions.items()
    )
    # Every received message is dispatched once; value-returning
    # operations additionally dispatch their reply at the requester.
    replies = mix.reads + mix.preads_full + mix.deferred_readers_satisfied
    dispatches = mix.total_messages + replies
    dispatch_cycles = dispatches * table.dispatch

    send = table.sending
    proc = table.processing
    communication = 0
    for words, count in mix.sends_by_words.items():
        communication += count * (send[f"send{words}"] + proc[f"send{words}"])
    communication += mix.reads * (
        send["read"] + proc["read"] + proc["send1"]  # reply banked at requester
    )
    communication += mix.writes * (send["write"] + proc["write"])
    communication += mix.preads_full * (
        send["pread"] + proc["pread_full"] + proc["send1"]
    )
    communication += mix.preads_empty * (send["pread"] + proc["pread_empty"])
    communication += mix.preads_deferred * (send["pread"] + proc["pread_deferred"])
    communication += mix.pwrites_empty * (send["pwrite"] + proc["pwrite_empty"])
    communication += mix.pwrites_deferred * (
        send["pwrite"] + table.pwrite_deferred_base
    )
    communication += mix.deferred_readers_satisfied * (
        table.pwrite_deferred_slope + proc["send1"]
    )
    return CycleBreakdown(
        model_key=model.key,
        compute=compute,
        dispatch=dispatch_cycles,
        communication=communication,
        source=table.source,
    )


def breakdown_all_models(stats: TamStats, source: str = "measured"):
    """Figure 12 bars for all six models, in Table 1 column order."""
    return [breakdown(stats, model, source=source) for model in ALL_MODELS]
