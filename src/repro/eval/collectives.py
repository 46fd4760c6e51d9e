"""NIC-offloaded vs processor-driven collectives (extension).

The paper's interface dispatches a type-0 message straight to its
handler IP (Figure 7 case 2).  This section asks what that buys for
*collective* operations: barrier, broadcast, reduce, and allreduce are
expressed as handler programs (:mod:`repro.collectives`) and each cell
of the grid runs the same collective twice —

* **nic** — the steps execute at the interface
  (:class:`~repro.collectives.engine.NicHandlerEngine`); the processor
  only enters the collective and observes completion;
* **proc** — the identical steps run as node inlets under the cluster
  service loop, the conventional processor-driven design.

Both variants share the step functions, the combining tree, and
order-independent combine ops, so their per-node results must be
*identical* — the harness checks this every run — and their event counts
(steps handled, messages sent, values combined) match too.  What differs
is where the work ran, priced post hoc per Table 1 interface model by
:mod:`repro.collectives.costs`: the NIC variant's processor cycles are
the entry/exit term alone, strictly below the processor-driven variant
whenever any message moved.

Default scale is the CI smoke grid (16 nodes); ``--paper-scale`` sweeps
16 / 64 / 256-node meshes with both the binary combining tree and the
flat (star) tree.

Usage::

    python -m repro --only collectives            # smoke grid
    python -m repro --only collectives --paper-scale
"""

from __future__ import annotations

from typing import Dict, List

from repro.collectives.baseline import run_proc_collective
from repro.collectives.costs import price_run
from repro.collectives.engine import run_nic_collective
from repro.collectives.programs import COLLECTIVES, expected_result
from repro.collectives.tree import CombiningTree
from repro.errors import EvaluationError
from repro.exp.spec import EvalOptions, ExperimentSpec
from repro.impls.base import ALL_MODELS, OPTIMIZED_REGISTER
from repro.network.topology import Mesh2D
from repro.utils.tables import render_table

#: (nodes, mesh side) grid cells; paper scale matches the netsweep ladder.
SMOKE_NODES = (16,)
FULL_NODES = (16, 64, 256)

#: Tree arities per cell: the binary combining tree and (paper-scale
#: only) the flat star tree — the no-combining baseline.
SMOKE_ARITIES = (2,)


def collectives_params(options: EvalOptions) -> Dict:
    """The grid derived from the CLI options."""
    if options.paper_scale:
        return {
            "node_counts": list(FULL_NODES),
            "kinds": list(COLLECTIVES),
            "arities": [2, "flat"],
            "op": "sum",
            "model_keys": [model.key for model in ALL_MODELS],
        }
    return {
        "node_counts": list(SMOKE_NODES),
        "kinds": list(COLLECTIVES),
        "arities": list(SMOKE_ARITIES),
        "op": "sum",
        "model_keys": [model.key for model in ALL_MODELS],
    }


def _mesh_for(n_nodes: int) -> Mesh2D:
    side = int(round(n_nodes ** 0.5))
    if side * side != n_nodes:
        raise EvaluationError(f"collectives grid wants square meshes, got {n_nodes}")
    return Mesh2D(side, side)


def _run_cell(kind: str, n_nodes: int, arity, op: str, model_keys) -> Dict:
    real_arity = n_nodes - 1 if arity == "flat" else arity
    values = list(range(n_nodes))
    nic = run_nic_collective(
        kind, _mesh_for(n_nodes), op=op, values=values, arity=real_arity
    )
    proc = run_proc_collective(
        kind, _mesh_for(n_nodes), op=op, values=values, arity=real_arity
    )
    expected = expected_result(
        kind, op, CombiningTree(n_nodes, arity=real_arity), values
    )
    if not (nic.results == proc.results == expected):
        raise EvaluationError(
            f"{kind}@{n_nodes} (arity {arity}): NIC and processor variants "
            "disagree on results"
        )
    if nic.events != proc.events:
        raise EvaluationError(
            f"{kind}@{n_nodes} (arity {arity}): event counts diverge "
            f"({nic.events} vs {proc.events})"
        )
    priced = {}
    for model in ALL_MODELS:
        if model.key not in model_keys:
            continue
        nic_price = price_run(nic, model)
        proc_price = price_run(proc, model)
        priced[model.key] = {
            "nic_proc_cycles": nic_price.proc_cycles,
            "proc_proc_cycles": proc_price.proc_cycles,
            "nic_overlap": nic_price.overlap,
            "offload_factor": round(
                proc_price.proc_cycles / nic_price.proc_cycles, 3
            )
            if nic_price.proc_cycles
            else 0.0,
        }
    return {
        "kind": kind,
        "n_nodes": n_nodes,
        "arity": arity,
        "results_identical": True,
        "events": dict(nic.events),
        "nic_makespan": nic.cycles,
        "proc_makespan": proc.cycles,
        "fabric_delivered": nic.fabric_delivered,
        "fabric_hops": nic.fabric_hops,
        "case2_dispatches": nic.dispatch.case2,
        "boundary_dispatches": nic.dispatch.boundary,
        "priced": priced,
    }


def compute_collectives(params: Dict) -> Dict:
    """Run the whole grid; every cell carries both variants' accounting."""
    cells: List[Dict] = []
    for n_nodes in params["node_counts"]:
        for kind in params["kinds"]:
            for arity in params["arities"]:
                cells.append(
                    _run_cell(
                        kind, n_nodes, arity, params["op"], params["model_keys"]
                    )
                )
    return {
        "op": params["op"],
        "models": list(params["model_keys"]),
        "cells": cells,
    }


def render_collectives(params: Dict, payload: Dict) -> str:
    key = OPTIMIZED_REGISTER.key
    rows = []
    for cell in payload["cells"]:
        priced = cell["priced"].get(key, {})
        rows.append(
            [
                cell["kind"],
                str(cell["n_nodes"]),
                str(cell["arity"]),
                str(cell["events"]["handled"]),
                str(cell["events"]["sends"]),
                f"{cell['nic_makespan']}/{cell['proc_makespan']}",
                str(priced.get("nic_proc_cycles", "-")),
                str(priced.get("proc_proc_cycles", "-")),
                f"{priced.get('nic_overlap', 0.0):.3f}",
                "yes" if cell["results_identical"] else "NO",
            ]
        )
    table = render_table(
        [
            "collective",
            "nodes",
            "arity",
            "steps",
            "msgs",
            "makespan n/p",
            "proc cyc (nic)",
            "proc cyc (proc)",
            "overlap",
            "identical",
        ],
        rows,
        title=(
            f"NIC-offloaded vs processor-driven collectives · op={payload['op']} "
            f"· pricing model {key}"
        ),
    )
    note = (
        "Both variants execute the identical handler programs over the same "
        "combining tree; 'identical' confirms per-node results matched the "
        "closed form.  Processor cycles are priced per Table 1 kernels: the "
        "NIC variant charges the processor only entry + completion, so its "
        "column is strictly lower whenever the collective moved a message.  "
        "overlap = fraction of total protocol work the processor did not "
        "perform.  Full per-model pricing for every cell is in the payload."
    )
    return table + "\n\n" + note


SPEC = ExperimentSpec(
    name="collectives",
    title="NIC-offloaded collectives via MsgIp handler programs (extension)",
    produces=("op", "models", "cells"),
    params=collectives_params,
    compute=compute_collectives,
    render=render_collectives,
)
