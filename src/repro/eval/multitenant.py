"""Multi-tenant serving: thousands of protection domains, three policies.

The paper's Section 2.1.3 protects two processes; this study asks what
happens when the receive/dispatch path multiplexes *hundreds to
thousands* of protection domains under heavy-tailed open-loop load.  One
tenant population — a fixed-rate flooder spraying the hot node, victims
whose destination mix concentrates there, and a Pareto-gapped background
— is served by each of the three :mod:`repro.tenancy` policies from the
same seed:

* **gang** — synchronous slices with the network drained between them
  (the CM-5 strategy the paper cites);
* **round-robin** — independent per-node switching on quantum
  boundaries, PIN-checked diversion filing mismatches;
* **quantum** — preemptive deepest-backlog-first switching.

The report is a QoS/fairness study: per-role dispatch-latency
percentiles (victims vs background), the victim-analysis comparison
across policies, and the worst individual victims.  Under independent
switching every flood message that reaches a node whose resident tenant
differs interrupts the processor (Section 2.1.3's privileged filing), so
the hot node's cycles leak to the flooder and victim tail latency
explodes; gang scheduling's drained network never delivers an
inactive tenant's message, so victims keep their service share.

Latencies are right-censored at the horizon: an arrival never
dispatched contributes its age, so a starving policy cannot look fast
by dropping its hard traffic.  Every table is a pure function of the
seed — repeat runs are byte-identical.

Usage::

    python -m repro.eval.multitenant          # text report
    python -m repro --only multitenant
"""

from __future__ import annotations

from typing import Dict, List

from repro.exp.registry import register
from repro.exp.spec import EvalOptions, ExperimentSpec
from repro.tenancy import SCHEDULER_NAMES, MultiTenantRun, make_tenants
from repro.tenancy.workload import ROLE_VICTIM
from repro.utils.tables import render_table


def multitenant_params(options: EvalOptions) -> Dict:
    """The serving configuration derived from the CLI options.

    The default grid serves 512 tenants over a 4×4 mesh for 16k cycles
    under all three policies; ``--paper-scale`` doubles the tenant
    population.  The generation window stops 4k cycles before the
    horizon so in-flight work can finish (what cannot is censored).
    """
    return {
        "n_tenants": 1024 if options.paper_scale else 512,
        "width": 4,
        "height": 4,
        "seed": 42,
        "gen_window": 12000,
        "horizon": 16000,
        "schedulers": list(SCHEDULER_NAMES),
        "service_interval": 4,
        "quantum": 50,
        "slice_cycles": 80,
        "switch_cycles": 4,
        "tenant_cap": 8,
        "worst_rows": 8,
    }


def run_policy(name: str, tenants, params: Dict) -> Dict:
    """Serve ``tenants`` under policy ``name``; returns the run payload."""
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
    cycles = run.run()
    payload = run.payload()
    payload["cycles"] = cycles
    return payload


def compute_multitenant(params: Dict) -> Dict:
    """One tenant population, served under every policy from one seed."""
    n_nodes = params["width"] * params["height"]
    tenants = make_tenants(params["n_tenants"], n_nodes, params["seed"])
    runs: Dict[str, Dict] = {}
    for name in params["schedulers"]:
        runs[name] = run_policy(name, tenants, params)
    return {
        "runs": runs,
        "victim_p99": {
            name: runs[name]["roles"][ROLE_VICTIM]["p99"] for name in runs
        },
    }


def _fmt(value: float) -> object:
    """Integral floats render without the trailing ``.0``."""
    if isinstance(value, float) and value == int(value):
        return int(value)
    return value


def render_multitenant(params: Dict, payload: Dict) -> str:
    runs = payload["runs"]
    summary = render_table(
        [
            "policy",
            "dispatched",
            "completion",
            "switches",
            "pin diverts",
            "cap diverts",
            "victim p50",
            "victim p99",
            "normal p99",
        ],
        [
            [
                name,
                f"{run['dispatched']}/{run['scheduled']}",
                f"{run['completion']:.1%}",
                run["switches"],
                run["diverted"].get("pin", 0),
                run["diverted"].get("cap", 0),
                _fmt(run["roles"]["victim"]["p50"]),
                _fmt(run["roles"]["victim"]["p99"]),
                _fmt(run["roles"]["normal"]["p99"]),
            ]
            for name, run in runs.items()
        ],
        title=(
            f"Multi-tenant serving: {params['n_tenants']} tenants over a "
            f"{params['width']}x{params['height']} mesh, "
            f"{params['horizon']} cycles, seed {params['seed']}"
        ),
    )

    role_rows: List[List[object]] = []
    for name, run in runs.items():
        for role in ("victim", "normal", "flooder"):
            stats = run["roles"][role]
            role_rows.append(
                [
                    name,
                    role,
                    stats["count"],
                    _fmt(stats["p50"]),
                    _fmt(stats["p90"]),
                    _fmt(stats["p99"]),
                    stats["mean"],
                ]
            )
    roles = render_table(
        ["policy", "role", "dispatches", "p50", "p90", "p99", "mean"],
        role_rows,
        title="Victim analysis: dispatch latency by role (cycles)",
    )

    lines = [summary, "", roles]

    # The worst individual victims under the harshest policy, compared
    # against their latency under every other policy.
    baseline = (
        "round-robin" if "round-robin" in runs else next(iter(runs))
    )
    by_pin = {
        name: {row["pin"]: row for row in run["tenant_table"]}
        for name, run in runs.items()
    }
    victims = [
        row
        for row in runs[baseline]["tenant_table"]
        if row["role"] == ROLE_VICTIM and row["generated"]
    ]
    victims.sort(key=lambda row: (-row["p99"], row["pin"]))
    worst = victims[: params["worst_rows"]]
    if worst:
        worst_table = render_table(
            ["pin", "generated", "censored"]
            + [f"{name} p99" for name in runs],
            [
                [
                    row["pin"],
                    row["generated"],
                    row["censored"],
                    *[_fmt(by_pin[name][row["pin"]]["p99"]) for name in runs],
                ]
                for row in worst
            ],
            title=f"Worst victims under {baseline} (p99 across policies)",
        )
        lines.extend(["", worst_table])

    victim_p99 = payload["victim_p99"]
    if "gang" in victim_p99 and baseline in victim_p99 and baseline != "gang":
        gang = victim_p99["gang"] or 1
        ratio = victim_p99[baseline] / gang
        lines.append(
            f"\nVictim p99 under {baseline} is {ratio:.1f}x gang "
            "scheduling's: every flood message hitting a node whose "
            "resident tenant differs interrupts the processor "
            "(Section 2.1.3), while gang's drained network never "
            "delivers an inactive tenant's message."
        )
    return "\n".join(lines)


register(
    ExperimentSpec(
        name="multitenant",
        title="Multi-tenant serving QoS (extension)",
        produces=("runs", "victim_p99"),
        params=multitenant_params,
        compute=compute_multitenant,
        render=render_multitenant,
    )
)


def main(argv=None) -> None:  # pragma: no cover - CLI
    params = multitenant_params(EvalOptions())
    print(render_multitenant(params, compute_multitenant(params)))


if __name__ == "__main__":  # pragma: no cover
    main()
