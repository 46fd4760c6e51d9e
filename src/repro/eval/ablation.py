"""Per-optimization ablations (extension study).

The paper evaluates its optimizations as a bundle; DESIGN.md calls out the
natural follow-up question: *which* of the Section 2.2 mechanisms buys how
much?  This harness prices a program's message mix under cost tables where
each optimization is enabled individually on top of the basic
architecture:

* **+dispatch** — hardware-assisted message interpretation (MsgIp):
  replaces the DISPATCHING row.
* **+types** — the 4-bit immediate type: replaces the SENDING rows (id
  generation and its store disappear from the send path).
* **+reply/forward** — the SEND substitution modes: replaces the
  PROCESSING rows.  (Handler code intertwines the REPLY mode with the type
  immediate on the reply path, so this bundle also carries the small
  id-elimination effect on processing; the split is documented rather than
  fabricated.)

The study runs per placement, so it also answers the paper's
placement-versus-optimization comparison feature by feature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.exp.runcache import resolve_key, run_program
from repro.exp.spec import ExperimentSpec
from repro.impls.base import model_by_key
from repro.tam.costmap import (
    CycleBreakdown,
    MessageCostTable,
    breakdown,
    measured_cost_table,
)
from repro.tam.stats import TamStats
from repro.utils.tables import render_table

ABLATIONS = ("basic", "+dispatch", "+types", "+reply/forward", "optimized")


def _tables_for_placement(placement_suffix: str) -> Dict[str, MessageCostTable]:
    basic = measured_cost_table(model_by_key(f"basic-{placement_suffix}"))
    optimized = measured_cost_table(model_by_key(f"optimized-{placement_suffix}"))
    return {
        "basic": basic,
        "+dispatch": replace(basic, dispatch=optimized.dispatch),
        "+types": replace(basic, sending=dict(optimized.sending)),
        "+reply/forward": replace(
            basic,
            processing=dict(optimized.processing),
            pwrite_deferred_base=optimized.pwrite_deferred_base,
            pwrite_deferred_slope=optimized.pwrite_deferred_slope,
        ),
        "optimized": optimized,
    }


@dataclass
class AblationRow:
    placement: str
    variant: str
    result: CycleBreakdown


def run_ablation(stats: TamStats) -> List[AblationRow]:
    """Price ``stats`` under every ablated cost table, per placement."""
    rows: List[AblationRow] = []
    for placement_suffix in ("register", "onchip", "offchip"):
        basic_model = model_by_key(f"basic-{placement_suffix}")
        tables = _tables_for_placement(placement_suffix)
        for variant in ABLATIONS:
            rows.append(
                AblationRow(
                    placement=placement_suffix,
                    variant=variant,
                    result=breakdown(stats, basic_model, table=tables[variant]),
                )
            )
    return rows


def render_ablation(program: str, rows: List[AblationRow]) -> str:
    by_placement: Dict[str, Dict[str, CycleBreakdown]] = {}
    for row in rows:
        by_placement.setdefault(row.placement, {})[row.variant] = row.result
    body = []
    for placement, variants in by_placement.items():
        basic_overhead = variants["basic"].overhead
        for variant in ABLATIONS:
            result = variants[variant]
            saved = basic_overhead - result.overhead
            body.append(
                [
                    placement,
                    variant,
                    result.overhead,
                    f"{100 * saved / basic_overhead:.1f}%" if basic_overhead else "-",
                    result.total,
                ]
            )
    return render_table(
        ["placement", "variant", "overhead cycles", "overhead saved", "total"],
        body,
        title=f"Optimization ablation - {program}",
    )


def _exp_compute(params: dict) -> dict:
    stats = run_program(
        params["program"], size=params["size"], nodes=params["nodes"]
    )
    return {"rows": run_ablation(stats)}


def _exp_artifact(params: dict, payload: dict) -> dict:
    return {
        "rows": [
            {
                "placement": row.placement,
                "variant": row.variant,
                "compute": row.result.compute,
                "dispatch": row.result.dispatch,
                "communication": row.result.communication,
                "overhead": row.result.overhead,
                "total": row.result.total,
            }
            for row in payload["rows"]
        ],
        "variants": list(ABLATIONS),
    }


SPEC = ExperimentSpec(
    name="ablation",
    title="Per-optimization ablation (extension)",
    produces=("rows", "variants"),
    params=lambda options: {"program": "matmul", "size": 24, "nodes": 16},
    programs=lambda params: (
        resolve_key(params["program"], params["size"], params["nodes"]),
    ),
    compute=_exp_compute,
    render=lambda params, payload: render_ablation(
        params["program"], payload["rows"]
    ),
    artifact=_exp_artifact,
)
