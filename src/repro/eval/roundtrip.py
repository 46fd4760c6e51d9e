"""End-to-end operation costs: complete round trips under each model.

Table 1 prices the three phases of one message separately; what a
programmer feels is the *whole operation*: request send + request
dispatch + request processing (+ reply dispatch + reply banking for
value-returning operations).  This report composes the measured Table 1
into those end-to-end figures — the per-operation version of the paper's
"five fold" claim — and names the reduction factor per operation.

Usage::

    python -m repro --only roundtrip
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exp.spec import ExperimentSpec
from repro.impls.base import ALL_MODELS
from repro.tam.costmap import MessageCostTable, cost_table
from repro.utils.tables import render_table

OPERATIONS = (
    "send0",
    "send1",
    "send2",
    "write",
    "read",
    "pread_full",
    "pwrite_empty",
)
"""Operations priced end to end (deferred paths depend on n; see Table 1)."""


def roundtrip_cost(table: MessageCostTable, operation: str) -> int:
    """Total cycles, requester plus servicer, for one complete operation."""
    send = table.sending
    proc = table.processing
    dispatch = table.dispatch
    if operation.startswith("send"):
        return send[operation] + dispatch + proc[operation]
    if operation == "write":
        return send["write"] + dispatch + proc["write"]
    if operation == "read":
        # Request + reply: the reply is a Send(1 word) banked at the
        # requester after its own dispatch.
        return send["read"] + dispatch + proc["read"] + dispatch + proc["send1"]
    if operation == "pread_full":
        return (
            send["pread"] + dispatch + proc["pread_full"] + dispatch + proc["send1"]
        )
    if operation == "pwrite_empty":
        return send["pwrite"] + dispatch + proc["pwrite_empty"]
    raise ValueError(f"unknown operation {operation!r}")


@dataclass
class RoundtripRow:
    operation: str
    cycles: Dict[str, int]

    @property
    def reduction(self) -> float:
        return self.cycles["basic-offchip"] / self.cycles["optimized-register"]


def collect(source: str = "measured") -> List[RoundtripRow]:
    tables = {model.key: cost_table(model, source) for model in ALL_MODELS}
    rows = []
    for operation in OPERATIONS:
        rows.append(
            RoundtripRow(
                operation,
                {
                    key: roundtrip_cost(table, operation)
                    for key, table in tables.items()
                },
            )
        )
    return rows


def render_roundtrips(rows: List[RoundtripRow] | None = None, source: str = "measured") -> str:
    rows = rows if rows is not None else collect(source)
    body = []
    for row in rows:
        body.append(
            [row.operation]
            + [row.cycles[model.key] for model in ALL_MODELS]
            + [f"{row.reduction:.1f}x"]
        )
    return render_table(
        ["operation"]
        + [model.key for model in ALL_MODELS]
        + ["basic-off / opt-reg"],
        body,
        title=f"End-to-end operation cost in cycles (Table 1 prices: {source})",
    )


def _exp_artifact(params: dict, payload: dict) -> dict:
    return {
        "operations": [
            {
                "operation": row.operation,
                "cycles": dict(row.cycles),
                "reduction_basic_offchip_vs_optimized_register": row.reduction,
            }
            for row in payload["rows"]
        ]
    }


SPEC = ExperimentSpec(
    name="roundtrip",
    title="End-to-end operation costs (derived from Table 1)",
    produces=("operations",),
    params=lambda options: {"source": "measured"},
    compute=lambda params: {"rows": collect(params["source"])},
    render=lambda params, payload: render_roundtrips(
        payload["rows"], source=params["source"]
    ),
    artifact=_exp_artifact,
)
