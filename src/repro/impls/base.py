"""The six network-interface models of the evaluation (paper Section 4).

The paper varies two axes:

* **placement** — off-chip cache-mapped, on-chip cache-mapped, or
  register-file-mapped (Section 3's three implementations);
* **architecture** — *basic* (Section 2.1: explicit 32-bit message ids,
  software dispatch, explicit copies) or *optimized* (Section 2.2: encoded
  types, REPLY / FORWARD modes, MsgIp hardware dispatch, boundary-condition
  versions).

An :class:`InterfaceModel` names one point in that 2×3 grid and knows how
to build a ready-to-run :class:`~repro.isa.machine.Machine` for it.  The
whole evaluation — Table 1, Figure 12, the sweeps — iterates over
:data:`ALL_MODELS`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import EvaluationError
from repro.isa.costs import CostModel, off_chip_with_latency
from repro.isa.machine import DEFAULT_COSTS, Machine, Placement


class Architecture(enum.Enum):
    """Basic (Section 2.1) versus optimized (Section 2.2) architecture."""

    BASIC = "basic"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class InterfaceModel:
    """One of the six evaluated interface models."""

    architecture: Architecture
    placement: Placement
    cost_model: Optional[CostModel] = None

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``optimized-register``."""
        return f"{self.architecture.value}-{self.placement.value.replace('-', '')}"

    @property
    def title(self) -> str:
        """Display name matching the paper's Table 1 column headers."""
        placement_titles = {
            Placement.REGISTER: "Register Mapped",
            Placement.ON_CHIP: "On-chip Cache",
            Placement.OFF_CHIP: "Off-chip Cache",
        }
        return f"{self.architecture.value.capitalize()} {placement_titles[self.placement]}"

    @property
    def optimized(self) -> bool:
        return self.architecture is Architecture.OPTIMIZED

    def costs(self) -> CostModel:
        return self.cost_model or DEFAULT_COSTS[self.placement]

    def make_machine(self) -> Machine:
        """A machine configured for this model's placement and timing."""
        return Machine(self.placement, cost_model=self.costs())

    def with_off_chip_latency(self, dead_cycles: int) -> "InterfaceModel":
        """This model with a different off-chip read latency (Section 4.2.3).

        Only meaningful for the off-chip placement; requesting it elsewhere
        is an error rather than a silent no-op.  At the latency the model
        already has (timing equal apart from the cost model's name) it
        returns the model itself, so its measured Table 1 column is reused.
        """
        if self.placement is not Placement.OFF_CHIP:
            raise EvaluationError(
                "off-chip latency applies only to the off-chip placement"
            )
        costs = off_chip_with_latency(dead_cycles)
        if replace(costs, name=self.costs().name) == self.costs():
            return self
        return replace(self, cost_model=costs)


OPTIMIZED_REGISTER = InterfaceModel(Architecture.OPTIMIZED, Placement.REGISTER)
OPTIMIZED_ON_CHIP = InterfaceModel(Architecture.OPTIMIZED, Placement.ON_CHIP)
OPTIMIZED_OFF_CHIP = InterfaceModel(Architecture.OPTIMIZED, Placement.OFF_CHIP)
BASIC_REGISTER = InterfaceModel(Architecture.BASIC, Placement.REGISTER)
BASIC_ON_CHIP = InterfaceModel(Architecture.BASIC, Placement.ON_CHIP)
BASIC_OFF_CHIP = InterfaceModel(Architecture.BASIC, Placement.OFF_CHIP)

ALL_MODELS: Tuple[InterfaceModel, ...] = (
    OPTIMIZED_REGISTER,
    OPTIMIZED_ON_CHIP,
    OPTIMIZED_OFF_CHIP,
    BASIC_REGISTER,
    BASIC_ON_CHIP,
    BASIC_OFF_CHIP,
)
"""Table 1's column order: optimized register/on/off, then basic."""


def model_by_key(key: str) -> InterfaceModel:
    """Look a model up by its :attr:`InterfaceModel.key`."""
    for model in ALL_MODELS:
        if model.key == key:
            return model
    raise EvaluationError(
        f"unknown model {key!r}; known: {[m.key for m in ALL_MODELS]}"
    )
