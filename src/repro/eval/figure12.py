"""Regenerate the paper's Figure 12 (Section 4.2.3).

Runs the two evaluation programs on the TAM substrate, prices the dynamic
instruction and message mix under all six interface models, and prints the
stacked bars (compute / dispatch / other communication) plus the headline
metrics the paper reports:

* the communication-overhead reduction from the basic off-chip model to
  the optimized register model ("about five fold" in the paper);
* the total execution-cycle reduction ("about 40%");
* the overhead share of total cycles ("from 51% to only 17%");
* the orderings: optimizations matter more than placement, and "even the
  slowest optimized implementation is better than the fastest unoptimized
  implementation".

Usage::

    python -m repro.eval.figure12 [matmul|gamteb|both] [--size N]
    python -m repro.eval.figure12 both --paper-costs
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List

from repro.exp.artifacts import to_jsonable
from repro.exp.registry import register
from repro.exp.runcache import (
    DEFAULT_SIZES,
    PAPER_SIZES,
    resolve_key,
    run_program,
)
from repro.exp.spec import ExperimentSpec
from repro.impls.base import ALL_MODELS
from repro.tam.costmap import CycleBreakdown, breakdown_all_models
from repro.tam.stats import TamStats
from repro.utils.tables import render_bar_chart, render_table

__all__ = [
    "DEFAULT_SIZES",
    "PAPER_SIZES",
    "run_program",
    "HeadlineMetrics",
    "headline_metrics",
    "render_figure",
]


@dataclass
class HeadlineMetrics:
    """The summary quantities the paper's Section 4.2.3 quotes."""

    overhead_reduction: float  # basic-offchip overhead / optimized-register
    total_reduction_percent: float  # total cycles cut, basic-off -> opt-reg
    overhead_fraction_basic_offchip: float
    overhead_fraction_optimized_register: float
    slowest_optimized_overhead: int
    fastest_basic_overhead: int

    @property
    def optimized_always_beats_basic(self) -> bool:
        return self.slowest_optimized_overhead < self.fastest_basic_overhead


def headline_metrics(breakdowns: List[CycleBreakdown]) -> HeadlineMetrics:
    by_key: Dict[str, CycleBreakdown] = {b.model_key: b for b in breakdowns}
    basic_off = by_key["basic-offchip"]
    opt_reg = by_key["optimized-register"]
    slowest_optimized = max(
        by_key[m.key].overhead for m in ALL_MODELS if m.optimized
    )
    fastest_basic = min(
        by_key[m.key].overhead for m in ALL_MODELS if not m.optimized
    )
    return HeadlineMetrics(
        overhead_reduction=basic_off.overhead / opt_reg.overhead,
        total_reduction_percent=100.0 * (1 - opt_reg.total / basic_off.total),
        overhead_fraction_basic_offchip=basic_off.overhead_fraction,
        overhead_fraction_optimized_register=opt_reg.overhead_fraction,
        slowest_optimized_overhead=slowest_optimized,
        fastest_basic_overhead=fastest_basic,
    )


def render_figure(
    program: str, stats: TamStats, source: str = "measured"
) -> str:
    """The Figure 12 bars and metrics for one program, as text."""
    breakdowns = breakdown_all_models(stats, source=source)
    labels = [b.model_key for b in breakdowns]
    chart = render_bar_chart(
        labels,
        [
            ("compute", [b.compute for b in breakdowns]),
            ("dispatch", [b.dispatch for b in breakdowns]),
            ("other communication", [b.communication for b in breakdowns]),
        ],
        title=f"Figure 12 - {program} (Table 1 prices: {source})",
    )
    table = render_table(
        ["model", "compute", "dispatch", "other comm", "total", "overhead %"],
        [
            [
                b.model_key,
                b.compute,
                b.dispatch,
                b.communication,
                b.total,
                f"{100 * b.overhead_fraction:.1f}%",
            ]
            for b in breakdowns
        ],
    )
    metrics = headline_metrics(breakdowns)
    summary = "\n".join(
        [
            f"communication overhead reduced {metrics.overhead_reduction:.1f}x "
            "(basic off-chip -> optimized register; paper: ~5x)",
            f"total cycles cut {metrics.total_reduction_percent:.0f}% "
            "(paper: ~40%)",
            "overhead share "
            f"{100 * metrics.overhead_fraction_basic_offchip:.0f}% -> "
            f"{100 * metrics.overhead_fraction_optimized_register:.0f}% "
            "(paper: 51% -> 17%)",
            "slowest optimized beats fastest basic: "
            f"{metrics.optimized_always_beats_basic} "
            f"({metrics.slowest_optimized_overhead:,} vs "
            f"{metrics.fastest_basic_overhead:,} overhead cycles)",
            f"grain: {stats.flops_per_message():.1f} flops/message "
            "(paper matmul: ~3); message instructions "
            f"{100 * stats.message_instruction_fraction:.1f}% of dynamic mix "
            "(paper: under 10%)",
        ]
    )
    return f"{chart}\n\n{table}\n\n{summary}"


# ---------------------------------------------------------------------------
# Experiment registration.
# ---------------------------------------------------------------------------


def _exp_params(options) -> dict:
    return {
        "programs": ("matmul", "gamteb"),
        "paper_scale": options.paper_scale,
        "nodes": 16,
        "source": "measured",
    }


def _exp_programs(params: dict):
    return tuple(
        resolve_key(
            program,
            PAPER_SIZES[program] if params["paper_scale"] else None,
            params["nodes"],
        )
        for program in params["programs"]
    )


def _exp_compute(params: dict) -> dict:
    stats = {}
    for program in params["programs"]:
        size = PAPER_SIZES[program] if params["paper_scale"] else None
        stats[program] = run_program(program, size=size, nodes=params["nodes"])
    return {"stats": stats}


def _exp_render(params: dict, payload: dict) -> str:
    figures = [
        render_figure(program, payload["stats"][program], source=params["source"])
        for program in params["programs"]
    ]
    return "\n\n".join(figures) + "\n"


def _exp_artifact(params: dict, payload: dict) -> dict:
    figures = {}
    for program, stats in payload["stats"].items():
        breakdowns = breakdown_all_models(stats, source=params["source"])
        metrics = headline_metrics(breakdowns)
        figures[program] = {
            "breakdowns": [
                {
                    **to_jsonable(b),
                    "total": b.total,
                    "overhead": b.overhead,
                    "overhead_fraction": b.overhead_fraction,
                }
                for b in breakdowns
            ],
            "headline": {
                **to_jsonable(metrics),
                "optimized_always_beats_basic": metrics.optimized_always_beats_basic,
            },
            "stats": stats.as_dict(),
        }
    return {"figures": figures}


register(
    ExperimentSpec(
        name="figure12",
        title="Figure 12 (Section 4.2.3)",
        produces=("figures",),
        params=_exp_params,
        programs=_exp_programs,
        compute=_exp_compute,
        render=_exp_render,
        artifact=_exp_artifact,
    )
)


def main(argv: List[str] | None = None) -> None:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description="Regenerate Figure 12")
    parser.add_argument(
        "program",
        nargs="?",
        default="both",
        choices=["matmul", "gamteb", "queens", "both", "all"],
    )
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument(
        "--paper-costs",
        action="store_true",
        help="price messages with the paper's Table 1 instead of measured",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's program sizes (matmul 100, gamteb 16)",
    )
    args = parser.parse_args(argv)
    if args.program == "both":
        programs = ["matmul", "gamteb"]
    elif args.program == "all":
        programs = ["matmul", "gamteb", "queens"]
    else:
        programs = [args.program]
    source = "paper" if args.paper_costs else "measured"
    for program in programs:
        size = args.size or (PAPER_SIZES[program] if args.paper_scale else None)
        stats = run_program(program, size=size, nodes=args.nodes)
        print(render_figure(program, stats, source=source))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
