"""Steady-state message-handling throughput (derived artifact).

Runs the composed service loop (dispatch inlined into every handler tail,
as Section 2.2.3's overlap implies) over a standard message stream and
reports, per interface model, the measured cycles per message and the
throughput at a nominal clock.  Because the loop is built from the
Table 1 kernels themselves, its numbers compose the table with zero
slack — the consistency the test suite asserts.

Usage::

    python -m repro --only throughput
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.exp.spec import ExperimentSpec
from repro.impls.base import ALL_MODELS
from repro.kernels.loop import measure_stream
from repro.utils.tables import render_table

STANDARD_STREAM: Sequence[str] = (
    "send1",
    "read",
    "write",
    "send1",
    "read",
    "send1",
    "write",
    "read",
)
"""A procedure-call-plus-remote-memory mix, 8 messages."""

CLOCK_MHZ = 25.0


@dataclass
class ThroughputRow:
    model_key: str
    cycles: int
    handled: int

    @property
    def cycles_per_message(self) -> float:
        return self.cycles / self.handled

    @property
    def messages_per_second(self) -> float:
        return CLOCK_MHZ * 1e6 / self.cycles_per_message


def collect(stream: Sequence[str] = STANDARD_STREAM) -> List[ThroughputRow]:
    rows = []
    for model in ALL_MODELS:
        measurement = measure_stream(model, list(stream))
        rows.append(
            ThroughputRow(model.key, measurement.cycles, measurement.handled)
        )
    return rows


def render_throughput(rows: List[ThroughputRow] | None = None) -> str:
    rows = rows if rows is not None else collect()
    body = [
        [
            row.model_key,
            row.cycles,
            f"{row.cycles_per_message:.1f}",
            f"{row.messages_per_second / 1e6:.2f}M",
        ]
        for row in rows
    ]
    table = render_table(
        ["model", "cycles (8 msgs)", "cycles/message", f"msgs/s @ {CLOCK_MHZ:.0f} MHz"],
        body,
        title="Steady-state service-loop throughput (composed from Table 1 kernels)",
    )
    fastest = min(rows, key=lambda r: r.cycles_per_message)
    slowest = max(rows, key=lambda r: r.cycles_per_message)
    return (
        f"{table}\n"
        f"{fastest.model_key} handles a message every "
        f"{fastest.cycles_per_message:.1f} cycles - "
        f"{slowest.cycles_per_message / fastest.cycles_per_message:.1f}x the "
        f"rate of {slowest.model_key}."
    )


def _exp_artifact(params: dict, payload: dict) -> dict:
    return {
        "models": [
            {
                "model": row.model_key,
                "cycles": row.cycles,
                "handled": row.handled,
                "cycles_per_message": row.cycles_per_message,
                "messages_per_second": row.messages_per_second,
            }
            for row in payload["rows"]
        ]
    }


SPEC = ExperimentSpec(
    name="throughput",
    title="Steady-state service-loop throughput (derived)",
    produces=("models",),
    params=lambda options: {
        "stream": tuple(STANDARD_STREAM),
        "clock_mhz": CLOCK_MHZ,
    },
    compute=lambda params: {"rows": collect(params["stream"])},
    render=lambda params, payload: render_throughput(payload["rows"]),
    artifact=_exp_artifact,
)
