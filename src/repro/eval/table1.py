"""Regenerate the paper's Table 1 (Section 4.1).

Runs every handler kernel on the behavioural machine under all six
interface models and prints the measured cycle counts next to the paper's
published values.  Usage::

    python -m repro --only table1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exp.registry import register
from repro.exp.spec import ExperimentSpec
from repro.impls.base import ALL_MODELS
from repro.kernels import expected as X
from repro.kernels.harness import Cell, measure_column
from repro.kernels.sequences import PROCESSING_CASES, SENDING_MESSAGES
from repro.utils.tables import render_table


def format_cell(section: str, case: str, cell: Cell) -> str:
    """Human form of one cell: ``n``, ``lo-hi``, or ``base+slope n``."""
    if isinstance(cell, tuple):
        if case == "pwrite_deferred":
            return f"{cell[0]}+{cell[1]}n"
        if cell[0] == cell[1]:
            return str(cell[0])
        return f"{cell[0]}-{cell[1]}"
    return str(cell)


@dataclass
class Table1Row:
    """One measured row with its paper counterpart."""

    section: str
    case: str
    measured: Dict[str, Cell]
    paper: Dict[str, Cell]

    @property
    def exact_expected(self) -> bool:
        key = (self.section, self.case if self.section != "dispatch" else "-")
        return key in X.EXACT_ROWS

    def matches(self) -> bool:
        return all(
            self.measured[key] == self.paper[key] for key in X.MODEL_ORDER
        )


def collect_rows() -> List[Table1Row]:
    """Every Table 1 cell under every model, read from the measured columns."""
    columns = {model.key: measure_column(model) for model in ALL_MODELS}
    rows = [
        Table1Row(
            "sending",
            message,
            {key: column.sending[message] for key, column in columns.items()},
            dict(X.SENDING_PAPER[message]),
        )
        for message in SENDING_MESSAGES
    ]
    rows.append(
        Table1Row(
            "dispatch",
            "-",
            {key: column.dispatch for key, column in columns.items()},
            dict(X.DISPATCH_PAPER),
        )
    )
    for case in PROCESSING_CASES:
        if case == "pwrite_deferred":
            measured = {key: column.pwrite_deferred for key, column in columns.items()}
            paper = X.PWRITE_DEFERRED_PAPER
        else:
            measured = {key: column.processing[case] for key, column in columns.items()}
            paper = X.PROCESSING_PAPER[case]
        rows.append(Table1Row("processing", case, measured, dict(paper)))
    return rows


def render_report(rows: List[Table1Row] | None = None) -> str:
    """The full Table 1 report as text."""
    rows = rows if rows is not None else collect_rows()
    headers = ["action", "message"] + [
        f"{key}" for key in X.MODEL_ORDER
    ] + ["vs paper"]
    body = []
    for row in rows:
        cells = [row.section.upper(), row.case]
        for key in X.MODEL_ORDER:
            measured = format_cell(row.section, row.case, row.measured[key])
            paper = format_cell(row.section, row.case, row.paper[key])
            cells.append(measured if measured == paper else f"{measured} ({paper})")
        if row.matches():
            verdict = "exact"
        elif row.exact_expected:
            verdict = "MISMATCH"
        else:
            verdict = "structural"
        cells.append(verdict)
        body.append(cells)
    legend = (
        "Cells show measured cycles; a parenthesised value is the paper's "
        "where it differs.\n'structural' rows depend on the authors' TAM "
        "runtime internals; see EXPERIMENTS.md."
    )
    table = render_table(
        headers,
        body,
        title="Table 1 - cycles to send, dispatch on, and process each message",
    )
    return f"{table}\n\n{legend}"


def rows_as_records(rows: List[Table1Row] | None = None) -> List[dict]:
    """The report as JSON-serialisable records (machine-readable export)."""
    rows = rows if rows is not None else collect_rows()
    records = []
    for row in rows:
        records.append(
            {
                "action": row.section,
                "message": row.case,
                "measured": {
                    key: format_cell(row.section, row.case, row.measured[key])
                    for key in X.MODEL_ORDER
                },
                "paper": {
                    key: format_cell(row.section, row.case, row.paper[key])
                    for key in X.MODEL_ORDER
                },
                "exact": row.matches(),
            }
        )
    return records


register(
    ExperimentSpec(
        name="table1",
        title="Table 1 (Section 4.1)",
        produces=("records",),
        params=lambda options: {},
        compute=lambda params: {"rows": collect_rows()},
        render=lambda params, payload: render_report(payload["rows"]),
        artifact=lambda params, payload: {
            "records": rows_as_records(payload["rows"])
        },
    )
)
