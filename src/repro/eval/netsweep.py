"""Topology × routing × load: the synthetic-traffic network sweep.

The paper's flow-control story (Section 2.1.1) was only ever told at
~16 nodes with dimension-order routing.  This section stress-tests it
at network scale, the way the gem5/Garnet studies sweep 64- and
256-core meshes: for each topology × routing policy, Bernoulli-inject a
synthetic pattern at a ladder of rates and record the latency-vs-load
curve and the saturation throughput (the knee where accepted load stops
tracking offered load and latency departs).

Default scale is the CI smoke grid — an 8×8 mesh under uniform traffic
at three injection rates across all three routing policies
(:mod:`repro.network.routing`).  ``--paper-scale`` runs the full grid:
{mesh, torus} × {dimension-order, adaptive-random, escape-vc} ×
four rates at 64 **and** 256 nodes.

Usage::

    python -m repro.eval.netsweep              # smoke grid, text report
    python -m repro --only netsweep --paper-scale
"""

from __future__ import annotations

from typing import Dict, List

from repro.exp.registry import register
from repro.exp.spec import EvalOptions, ExperimentSpec
from repro.network.routing import POLICY_NAMES, make_policy
from repro.network.traffic import run_traffic_named, saturation_throughput
from repro.utils.tables import render_table

#: The full (paper-scale) grid's node counts, per topology kind.
FULL_CONFIGS = (("mesh", 64), ("torus", 64), ("mesh", 256), ("torus", 256))

#: The smoke grid: one 8×8 mesh, three rates.
SMOKE_CONFIGS = (("mesh", 64),)
SMOKE_RATES = (0.05, 0.15, 0.30)
FULL_RATES = (0.05, 0.20, 0.35, 0.50)


def netsweep_params(options: EvalOptions) -> Dict:
    """The sweep grid derived from the CLI options."""
    if options.paper_scale:
        return {
            "configs": list(FULL_CONFIGS),
            "policies": list(POLICY_NAMES),
            "rates": list(FULL_RATES),
            "pattern": "uniform",
            "seed": 42,
            "warmup_cycles": 200,
            "measure_cycles": 600,
        }
    return {
        "configs": list(SMOKE_CONFIGS),
        "policies": list(POLICY_NAMES),
        "rates": list(SMOKE_RATES),
        "pattern": "uniform",
        "seed": 42,
        "warmup_cycles": 100,
        "measure_cycles": 300,
    }


def compute_netsweep(params: Dict) -> Dict:
    """Run the whole grid; returns curves keyed by configuration.

    Each curve is one (topology, nodes, policy) cell: its points are the
    :func:`~repro.network.traffic.run_traffic` payloads per injection
    rate, plus the cell's saturation throughput.  A fresh seeded policy
    is built per run so every cell is independently reproducible.
    """
    curves: List[Dict] = []
    for kind, n_nodes in params["configs"]:
        for policy_name in params["policies"]:
            points = []
            for rate in params["rates"]:
                points.append(
                    run_traffic_named(
                        kind,
                        n_nodes,
                        make_policy(policy_name, seed=params["seed"]),
                        params["pattern"],
                        rate,
                        seed=params["seed"],
                        warmup_cycles=params["warmup_cycles"],
                        measure_cycles=params["measure_cycles"],
                    )
                )
            curves.append(
                {
                    "topology_kind": kind,
                    "n_nodes": n_nodes,
                    "routing": policy_name,
                    "points": points,
                    "saturation_throughput": round(
                        saturation_throughput(points), 6
                    ),
                }
            )
    return {
        "pattern": params["pattern"],
        "rates": list(params["rates"]),
        "curves": curves,
    }


def render_netsweep(params: Dict, payload: Dict) -> str:
    blocks = []
    for curve in payload["curves"]:
        rows = [
            [
                f"{point['offered_rate']:.2f}",
                f"{point['accepted_rate']:.4f}",
                f"{point['throughput']:.4f}",
                f"{point['mean_latency']:.1f}",
                f"{point['mean_hops']:.2f}",
                "deadlock"
                if point["deadlock"]
                else ("ok" if point["drained"] else "stuck"),
            ]
            for point in curve["points"]
        ]
        blocks.append(
            render_table(
                ["offered", "accepted", "throughput", "latency", "hops", "drain"],
                rows,
                title=(
                    f"{curve['topology_kind']} {curve['n_nodes']} nodes · "
                    f"{curve['routing']} · {payload['pattern']} traffic "
                    f"(saturation {curve['saturation_throughput']:.4f})"
                ),
            )
        )
    blocks.append(
        "Rates are messages/node/cycle.  accepted < offered means the "
        "network saturated and backpressure reached the processors; the "
        "latency column is the latency-vs-load curve.  "
        "drain=deadlock marks runs whose post-injection drain closed a "
        "buffer-wait cycle (expected for adaptive-random past saturation "
        "— it has no escape path); the cycle itself is in the payload."
    )
    return "\n\n".join(blocks)


register(
    ExperimentSpec(
        name="netsweep",
        title="Topology x routing x load sweep (extension, synthetic traffic)",
        produces=("pattern", "rates", "curves"),
        params=netsweep_params,
        compute=compute_netsweep,
        render=render_netsweep,
    )
)


def main(argv=None) -> None:  # pragma: no cover - CLI
    params = netsweep_params(EvalOptions())
    print(render_netsweep(params, compute_netsweep(params)))


if __name__ == "__main__":  # pragma: no cover
    main()
