"""Post-hoc cycle pricing for collective runs.

The simulation layer counts *events* (steps handled, messages sent,
values combined); this module prices those events in processor cycles
under each of the six Table 1 interface models, reading each model's
measured column (:func:`repro.kernels.harness.measure_column`) — the same
measure-then-multiply method Figure 12 uses, applied to the
collectives.

One collective step is priced as a dispatch plus a one-data-word Send
handler (``send1`` — a collective step message carries its value in one
data word), and each message transmission as the ``send1`` SENDING
kernel.  Both variants additionally charge the processor, per node, one
entry (the local state update that enters the collective) and one
completion observation (a dispatch-shaped poll):

* processor-driven: the processor also executes every step and every
  send, so ``proc_cycles = entry/exit + step work``;
* NIC-offloaded: the step work runs at the interface, so it lands in
  ``nic_cycles`` and ``proc_cycles`` is the entry/exit term alone —
  strictly smaller whenever the collective moved any message.

``overlap`` is the fraction of the total work the processor did *not*
perform — the compute availability the offload buys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.engine import CollectiveRun
from repro.impls.base import InterfaceModel
from repro.kernels.harness import measure_column

#: The kernel that prices one collective step: a Send carrying one data
#: word, the shape of every UP/DOWN message.
STEP_KERNEL = "send1"


@dataclass(frozen=True)
class StepCosts:
    """Measured per-event cycle costs under one interface model."""

    dispatch: int
    processing: int
    sending: int

    @property
    def handle(self) -> int:
        """One handled step: dispatch into the handler plus its body."""
        return self.dispatch + self.processing


def _costs_for(model: InterfaceModel) -> StepCosts:
    column = measure_column(model)
    return StepCosts(
        dispatch=column.dispatch,
        processing=column.processing[STEP_KERNEL],
        sending=column.worst_sending(STEP_KERNEL),
    )


@dataclass
class PricedRun:
    """One collective run priced under one interface model."""

    model: str
    variant: str
    proc_cycles: int
    nic_cycles: int
    total_cycles: int
    overlap: float


def price_run(run: CollectiveRun, model: InterfaceModel) -> PricedRun:
    """Price a :class:`CollectiveRun`'s events under ``model``."""
    costs = _costs_for(model)
    n = run.n_nodes
    # Per node: one entry (local state update, processing-shaped) and
    # one completion observation (dispatch-shaped poll) — the only
    # processor work the NIC-offloaded variant has.
    entry_exit = n * (costs.processing + costs.dispatch)
    step_work = (
        run.events["handled"] * costs.handle
        + run.events["sends"] * costs.sending
    )
    if run.variant == "nic":
        proc_cycles = entry_exit
        nic_cycles = step_work
    else:
        proc_cycles = entry_exit + step_work
        nic_cycles = 0
    total = entry_exit + step_work
    return PricedRun(
        model=model.key,
        variant=run.variant,
        proc_cycles=proc_cycles,
        nic_cycles=nic_cycles,
        total_cycles=total,
        overlap=round(1.0 - proc_cycles / total, 4) if total else 0.0,
    )
