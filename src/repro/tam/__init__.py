"""The Threaded Abstract Machine substrate (Figure 12's execution model)."""

from repro.tam.codeblock import Codeblock, CounterSpec, InletSpec
from repro.tam.costmap import (
    INSTRUCTION_CYCLES,
    CycleBreakdown,
    MessageCostTable,
    breakdown,
    breakdown_all_models,
    cost_table,
)
from repro.tam.frame import FrameRef
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
    ResetInstr,
    SendInstr,
    StopInstr,
    SwitchInstr,
    WriteInstr,
)
from repro.tam.runtime import IStructRef, TamMachine
from repro.tam.stats import MessageMix, TamStats

__all__ = [
    "Codeblock",
    "ConInstr",
    "CounterSpec",
    "CycleBreakdown",
    "FallocInstr",
    "ForkInstr",
    "FrameRef",
    "IStructRef",
    "IallocInstr",
    "IfetchInstr",
    "Imm",
    "InletSpec",
    "INSTRUCTION_CYCLES",
    "IstoreInstr",
    "Kind",
    "MessageCostTable",
    "MessageMix",
    "MovInstr",
    "Op",
    "OpInstr",
    "ReadInstr",
    "ResetInstr",
    "SendInstr",
    "StopInstr",
    "SwitchInstr",
    "TamMachine",
    "TamStats",
    "WriteInstr",
    "breakdown",
    "breakdown_all_models",
    "cost_table",
]
