"""The multi-tenant serving study, recorded into the perf database.

Runs the three-policy tenancy comparison (:mod:`repro.eval.multitenant`)
and appends one record to ``results/perfdb``: per-policy victim/normal
latency percentiles and completion land under distinct metric names
(``gang_victim_p99`` …) so ``python -m repro.obs.report`` can trend the
QoS numbers across commits, while the ``*_seconds`` wall-clock metrics
(one per policy plus the ``multitenant_seconds`` total) are what the CI
regression gate judges.  One extra run of the first policy repeats with
the lineage tracker attached, so ``multitenant_lineage_seconds`` vs
``multitenant_nolineage_seconds`` trends the observability overhead on
the tenancy path too.

Run standalone::

    python benchmarks/bench_multitenant.py [--smoke] [--paper-scale]
        [--schedulers NAME ...] [--tenants N] [--seed N] [--perfdb DIR]

``--smoke`` is CI's quick pass — 128 tenants over a shortened horizon
under a separate ``multitenant-smoke`` bench name so its timings never
pollute the full-run trend history.
"""

import argparse
import time
from pathlib import Path

from repro.eval.multitenant import (
    multitenant_metrics,
    multitenant_params,
    render_multitenant,
    run_policy,
)
from repro.exp.spec import EvalOptions
from repro.obs import perfdb
from repro.obs.lineage import LineageTracker
from repro.tenancy import SCHEDULER_NAMES, MultiTenantRun, make_tenants

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_NAME = "multitenant"


def _timed_run(name, tenants, params, lineage=None) -> float:
    """Wall-clock one policy run, optionally with lineage attached."""
    run = MultiTenantRun(
        name,
        tenants,
        seed=params["seed"],
        width=params["width"],
        height=params["height"],
        gen_window=params["gen_window"],
        horizon=params["horizon"],
        service_interval=params["service_interval"],
        quantum=params["quantum"],
        slice_cycles=params["slice_cycles"],
        switch_cycles=params["switch_cycles"],
        tenant_cap=params["tenant_cap"],
    )
    if lineage is not None:
        run.fabric.attach(lineage)
    start = time.perf_counter()
    run.run()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI quick pass: 128 tenants over a shortened horizon, "
            "recorded under a separate '-smoke' bench name"
        ),
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="double the tenant population (1024 tenants)",
    )
    parser.add_argument(
        "--schedulers",
        nargs="*",
        choices=SCHEDULER_NAMES,
        default=None,
        help="restrict the comparison to these policies",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="override the tenant population size",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed shared by the population and schedule",
    )
    parser.add_argument(
        "--perfdb",
        type=Path,
        default=REPO_ROOT / perfdb.DEFAULT_DB_DIR,
        help="perf database directory (default: results/perfdb)",
    )
    args = parser.parse_args(argv)

    params = multitenant_params(EvalOptions(paper_scale=args.paper_scale))
    if args.smoke:
        params.update(n_tenants=128, gen_window=4000, horizon=6000)
    if args.schedulers:
        params["schedulers"] = list(args.schedulers)
    if args.tenants is not None:
        params["n_tenants"] = args.tenants
    if args.seed is not None:
        params["seed"] = args.seed

    n_nodes = params["width"] * params["height"]
    tenants = make_tenants(params["n_tenants"], n_nodes, params["seed"])
    runs = {}
    timings = {}
    total = 0.0
    for name in params["schedulers"]:
        start = time.perf_counter()
        runs[name] = run_policy(name, tenants, params)
        elapsed = time.perf_counter() - start
        timings[f"{name}_seconds"] = round(elapsed, 4)
        total += elapsed
    payload = {
        "runs": runs,
        "victim_p99": {
            name: runs[name]["roles"]["victim"]["p99"] for name in runs
        },
    }
    print(render_multitenant(params, payload))
    print()

    # Lineage overhead probe: the first policy re-run back-to-back with
    # and without the lineage tracker, so the pair shares cache state.
    probe = params["schedulers"][0]
    nolineage_elapsed = _timed_run(probe, tenants, params)
    lineage_elapsed = _timed_run(
        probe, tenants, params, lineage=LineageTracker(origin="bench-multitenant")
    )

    metrics = multitenant_metrics(payload)
    metrics.update(timings)
    metrics["multitenant_seconds"] = round(total, 4)
    metrics["multitenant_nolineage_seconds"] = round(nolineage_elapsed, 4)
    metrics["multitenant_lineage_seconds"] = round(lineage_elapsed, 4)
    record = perfdb.make_record(
        bench=f"{BENCH_NAME}-smoke" if args.smoke else BENCH_NAME,
        metrics=metrics,
        meta={
            "tenants": params["n_tenants"],
            "nodes": n_nodes,
            "seed": params["seed"],
            "horizon": params["horizon"],
            "schedulers": list(params["schedulers"]),
            "lineage_policy": probe,
        },
    )
    path = perfdb.append_record(args.perfdb, record)
    print(
        f"served {params['n_tenants']} tenants under "
        f"{len(params['schedulers'])} policies in {total:.2f}s"
    )
    print(
        f"lineage probe ({probe}): off {nolineage_elapsed:.3f}s  "
        f"on {lineage_elapsed:.3f}s  "
        f"overhead {(lineage_elapsed / nolineage_elapsed - 1.0) * 100:+.1f}%"
    )
    print(f"appended perfdb record to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
