"""The off-chip latency sensitivity study (paper Section 4.2.3).

"Figure 12 assumes a two cycle latency for reads from the off-chip
interface.  If, however, the latency is increased to 8 cycles instead of
2, then the communication costs of the off-chip optimized model will
double.  As a result, relegating the network interface off-chip will not
remain a viable alternative for future generations of multiprocessors."

This harness sweeps the off-chip read latency, reprices a program's
message mix at each point, and reports the communication cost relative to
the 2-cycle baseline.

Usage::

    python -m repro --only latency [--paper-scale]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.exp.artifacts import to_jsonable
from repro.exp.runcache import resolve_key, run_program
from repro.exp.spec import ExperimentSpec
from repro.impls.base import OPTIMIZED_OFF_CHIP
from repro.tam.costmap import breakdown
from repro.tam.stats import TamStats
from repro.utils.tables import render_table

BASELINE_DEAD_CYCLES = 2
"""The paper's Figure 12 assumption for off-chip reads."""


@dataclass
class LatencyPoint:
    dead_cycles: int
    communication: int
    dispatch: int
    total: int

    @property
    def overhead(self) -> int:
        return self.communication + self.dispatch


def sweep(
    stats: TamStats, latencies: Sequence[int] = (2, 4, 6, 8, 12, 16)
) -> List[LatencyPoint]:
    """Reprice ``stats`` at each off-chip read latency."""
    points = []
    for dead_cycles in latencies:
        result = breakdown(stats, OPTIMIZED_OFF_CHIP.with_off_chip_latency(dead_cycles))
        points.append(
            LatencyPoint(
                dead_cycles=dead_cycles,
                communication=result.communication,
                dispatch=result.dispatch,
                total=result.total,
            )
        )
    return points


def relative_overheads(points: List[LatencyPoint]) -> Dict[int, float]:
    """Overhead at each latency, relative to the 2-cycle baseline."""
    baseline = next(
        (p for p in points if p.dead_cycles == BASELINE_DEAD_CYCLES), points[0]
    )
    return {p.dead_cycles: p.overhead / baseline.overhead for p in points}


def render_sweep(program: str, points: List[LatencyPoint]) -> str:
    ratios = relative_overheads(points)
    table = render_table(
        ["latency (dead cycles)", "dispatch", "other comm", "overhead", "vs 2-cycle"],
        [
            [p.dead_cycles, p.dispatch, p.communication, p.overhead, f"{ratios[p.dead_cycles]:.2f}x"]
            for p in points
        ],
        title=f"Off-chip read latency sweep - {program} (optimized off-chip model)",
    )
    at8 = ratios.get(8)
    note = (
        f"\noverhead at 8 cycles = {at8:.2f}x the 2-cycle baseline "
        "(paper: communication costs 'will double')"
        if at8
        else ""
    )
    return table + note


def _exp_params(options) -> dict:
    return {
        "program": "matmul",
        "size": 100 if options.paper_scale else 24,
        "nodes": 16,
        "latencies": (2, 4, 6, 8, 12, 16),
    }


def _exp_compute(params: dict) -> dict:
    stats = run_program(
        params["program"], size=params["size"], nodes=params["nodes"]
    )
    return {"points": sweep(stats, params["latencies"])}


def _exp_artifact(params: dict, payload: dict) -> dict:
    points = payload["points"]
    return {
        "points": [
            {**to_jsonable(p), "overhead": p.overhead} for p in points
        ],
        "relative_overheads": relative_overheads(points),
        "baseline_dead_cycles": BASELINE_DEAD_CYCLES,
    }


SPEC = ExperimentSpec(
    name="latency",
    title="Off-chip latency sensitivity (Section 4.2.3)",
    produces=("points", "relative_overheads"),
    params=_exp_params,
    programs=lambda params: (
        resolve_key(params["program"], params["size"], params["nodes"]),
    ),
    compute=_exp_compute,
    render=lambda params, payload: render_sweep(
        params["program"], payload["points"]
    ),
    artifact=_exp_artifact,
)
