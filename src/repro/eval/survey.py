"""The §1 survey comparison: existing interfaces versus this architecture.

Puts the paper-cited per-message overheads of the four interface
categories next to this reproduction's measured costs (a remote-read
round trip under the optimized register model takes two instructions of
handler time), on one cycle axis.

Usage::

    python -m repro --only survey
"""

from __future__ import annotations

from typing import List

from repro.exp.registry import register
from repro.exp.spec import ExperimentSpec
from repro.impls.base import BASIC_OFF_CHIP, OPTIMIZED_REGISTER
from repro.kernels.harness import measure_column
from repro.survey.models import (
    DEFAULT_CLOCK_MHZ,
    SURVEY,
    survey_principles_satisfied,
)
from repro.utils.tables import render_table

SURVEY_COLUMNS = (
    "interface",
    "category",
    "overhead_us",
    "cycles",
    "principles",
    "source",
)


def this_work_rows(clock_mhz: float) -> List[List[object]]:
    """Measured per-message overhead of this paper's architecture."""
    rows = []
    for label, model in (
        ("this work: optimized register", OPTIMIZED_REGISTER),
        ("this work: basic off-chip", BASIC_OFF_CHIP),
    ):
        column = measure_column(model)
        cycles = (
            column.worst_sending("send1") + column.dispatch + column.processing["send1"]
        )
        rows.append(
            [
                label,
                "tightly-coupled NI",
                f"{cycles / clock_mhz:.2f}",
                cycles,
                4,
                "measured (Send, 1 word)",
            ]
        )
    return rows


def collect_survey(clock_mhz: float = DEFAULT_CLOCK_MHZ) -> List[List[object]]:
    """Every survey row plus this work's measured rows, slowest first."""
    body: List[List[object]] = []
    for interface in sorted(SURVEY, key=lambda i: -i.cycles(clock_mhz)):
        cycles = interface.cycles(clock_mhz)
        body.append(
            [
                interface.name,
                interface.category,
                f"{cycles / clock_mhz:.2f}",
                int(cycles),
                survey_principles_satisfied(interface),
                interface.citation,
            ]
        )
    body.extend(this_work_rows(clock_mhz))
    return body


def render_survey(
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
    rows: List[List[object]] | None = None,
) -> str:
    body = rows if rows is not None else collect_survey(clock_mhz)
    return render_table(
        [
            "interface",
            "category",
            "overhead (us)",
            f"cycles @ {clock_mhz:.0f} MHz",
            "principles (of 4)",
            "source",
        ],
        body,
        title="Section 1 survey: per-message software overhead",
    )


register(
    ExperimentSpec(
        name="survey",
        title="Section 1 survey (extension)",
        produces=("rows", "columns"),
        params=lambda options: {"clock_mhz": DEFAULT_CLOCK_MHZ},
        compute=lambda params: {"rows": collect_survey(params["clock_mhz"])},
        render=lambda params, payload: render_survey(
            params["clock_mhz"], rows=payload["rows"]
        ),
        artifact=lambda params, payload: {
            "rows": [
                dict(zip(SURVEY_COLUMNS, row)) for row in payload["rows"]
            ],
            "columns": list(SURVEY_COLUMNS),
        },
    )
)
