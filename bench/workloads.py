"""The benchmark's workloads: what one sample runs, and how it is checked.

Each workload is a ``setup(seed, smoke)`` function that imports the
simulator, generates the inputs and returns two closures:

* ``run()`` -- the timed region: one call of the workload's entry
  point(s), exactly what a user of the simulator waits for;
* ``finish(result)`` -- untimed: checks the workload's invariants
  (raising :class:`CheckFailed`) and returns ``(messages, payload,
  extras)``, where ``messages`` counts the simulated messages the run
  offered to the machine (all complete except tenancy arrivals
  censored at the horizon), ``payload`` is the simulated output that
  gets hashed, and ``extras`` holds per-layer numbers only the workload
  can see.

This module imports nothing from ``repro`` at import time, so ``run.py``
(which never loads the simulator) can read the table.  Only the seeded
workloads draw inputs from ``seed``; the hot-spot and matmul are fixed
configurations from the paper, identical for every seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: Offered load of the mesh workloads, messages/node/cycle: below
#: saturation for both policies, so every run drains.
MESH_RATE = 0.15

# The mesh and tenancy runs are shorter than the full-size studies
# (mesh 200+600 cycles, tenancy window 12,000 / horizon 16,000) so that
# a time-budgeted run holds 10+ samples.  Their per-layer self-time
# shares match the full-size runs' within one point (bench/README.md,
# "Workload sizes"); matmul's do not at n=64, so it keeps n=100.


class CheckFailed(Exception):
    """A workload invariant did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    #: True when ``--seed`` changes the inputs (golden digests then hold
    #: only for the golden seed).
    seeded: bool
    #: The workload this one runs with observers attached: the simulated
    #: output must equal that workload's, and the ratio of their
    #: ``run_s`` is the observer overhead.  Only such a workload may
    #: call an observer.
    observes: Optional[str] = None


def _mesh(policy: str) -> Callable:
    def setup(seed: int, smoke: bool):
        from repro.network.routing import make_policy
        from repro.network.topology import Mesh2D
        from repro.network.traffic import run_traffic

        side = 8 if smoke else 16
        topology = Mesh2D(side, side)
        routing = make_policy(policy, seed)

        def run():
            return run_traffic(
                topology,
                routing,
                "uniform",
                MESH_RATE,
                seed,
                warmup_cycles=50,
                measure_cycles=150,
            )

        def finish(payload: Dict):
            _require(payload["drained"], f"{policy} mesh did not drain")
            _require(
                payload["total_retired"] == payload["total_delivered"],
                f"retired {payload['total_retired']} != delivered "
                f"{payload['total_delivered']}",
            )
            return payload["total_delivered"], payload, {}

        return run, finish

    return setup


def _hotspot_sim_fields(payload: Dict) -> Dict:
    """The hot-spot payload minus what observers add (``chain`` is read
    from the trace, ``trace`` is the tracer's own counts)."""
    return {k: v for k, v in payload.items() if k not in ("chain", "trace")}


def _hotspot_params(smoke: bool) -> Dict:
    from repro.eval.flowcontrol import hotspot_params
    from repro.exp.spec import EvalOptions

    return hotspot_params(EvalOptions(paper_scale=not smoke))


def _check_hotspot(payload: Dict) -> None:
    _require(
        payload["serviced"] == payload["offered"],
        f"serviced {payload['serviced']} of {payload['offered']}",
    )


def _hotspot(seed: int, smoke: bool):
    from repro.eval.flowcontrol import run_hotspot

    params = _hotspot_params(smoke)

    def run():
        return run_hotspot(params)

    def finish(payload: Dict):
        _check_hotspot(payload)
        return payload["serviced"], _hotspot_sim_fields(payload), {}

    return run, finish


def _hotspot_observed(seed: int, smoke: bool):
    from repro.eval.flowcontrol import run_hotspot
    from repro.obs.breakdown import phase_breakdown, reconcile_lineage
    from repro.obs.lineage import PHASE_VC_BLOCK, LineageTracker
    from repro.obs.metrics import MetricsRecorder
    from repro.obs.tracer import Tracer

    params = _hotspot_params(smoke)

    def run():
        lineage = LineageTracker(origin="bench")
        payload = run_hotspot(
            params, tracer=Tracer(), metrics=MetricsRecorder(), lineage=lineage
        )
        start = time.perf_counter()
        reconciliation = reconcile_lineage(lineage, require_complete=True)
        breakdown = phase_breakdown(lineage)
        reconcile_s = time.perf_counter() - start
        return payload, reconciliation, breakdown, reconcile_s

    def finish(result):
        payload, reconciliation, breakdown, reconcile_s = result
        _check_hotspot(payload)
        _require(
            reconciliation["checked"] == payload["delivered"],
            f"lineage checked {reconciliation['checked']} of "
            f"{payload['delivered']} delivered messages",
        )
        vc_block = breakdown["phases"].get(PHASE_VC_BLOCK, {}).get("total", 0)
        _require(
            vc_block == payload["blocked_moves"],
            f"vc_block cycles {vc_block} != blocked moves "
            f"{payload['blocked_moves']}",
        )
        _require(payload["trace"]["emitted"] > 0, "tracer saw no events")
        extras = {"obs.reconcile_s": reconcile_s}
        return payload["serviced"], _hotspot_sim_fields(payload), extras

    return run, finish


def _matmul(seed: int, smoke: bool):
    from repro.programs.matmul import run_matmul

    n = 24 if smoke else 100

    def run():
        # verify=True: run_matmul raises unless C matches NumPy's A @ B.
        return run_matmul(n=n, nodes=16, verify=True)

    def finish(result):
        payload = {
            "n": n,
            "stats": result.stats.as_dict(),
            "turns": result.machine.turns_executed,
            "total": result.total,
        }
        return result.stats.messages.total_messages, payload, {}

    return run, finish


def _tenants(seed: int, smoke: bool):
    from repro.eval.multitenant import multitenant_params, run_policy
    from repro.exp.spec import EvalOptions
    from repro.tenancy import make_tenants

    params = dict(
        multitenant_params(EvalOptions()),
        seed=seed,
        gen_window=2000,
        horizon=3000,
    )
    tenants = make_tenants(64 if smoke else 512, 16, seed)

    def run():
        runs, seconds = {}, {}
        for policy in params["schedulers"]:
            start = time.perf_counter()
            runs[policy] = run_policy(policy, tenants, params)
            seconds[policy] = time.perf_counter() - start
        return runs, seconds

    def finish(result):
        runs, seconds = result
        for policy, payload in runs.items():
            for row in payload["tenant_table"]:
                _require(
                    row["generated"] == row["dispatched"] + row["censored"],
                    f"{policy} pin {row['pin']}: generated {row['generated']} "
                    f"!= dispatched {row['dispatched']} + censored "
                    f"{row['censored']}",
                )
        dispatched = sum(p["dispatched"] for p in runs.values())
        scheduled = sum(p["scheduled"] for p in runs.values())
        extras = {f"tenancy.run_s.{p}": s for p, s in seconds.items()}
        extras.update(
            {
                "tenancy.completion": dispatched / scheduled if scheduled else 0.0,
                "tenancy.switches": sum(p["switches"] for p in runs.values()),
                "tenancy.redelivered": sum(
                    p["redelivered"] for p in runs.values()
                ),
            }
        )
        # Arrivals, not dispatches: which arrivals a policy serves before
        # the horizon is its QoS outcome and swings ~15% between seeds,
        # while every arrival is simulated work.
        return scheduled, runs, extras

    return run, finish


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mesh256_dor",
            _mesh("dimension-order"),
            seeded=True,
        ),
        Workload(
            "mesh256_escape",
            _mesh("escape-vc"),
            seeded=True,
        ),
        Workload(
            "hotspot16",
            _hotspot,
            seeded=False,
        ),
        Workload(
            "hotspot16_observed",
            _hotspot_observed,
            seeded=False,
            observes="hotspot16",
        ),
        Workload(
            "matmul100",
            _matmul,
            seeded=False,
        ),
        Workload(
            "tenants512",
            _tenants,
            seeded=True,
        ),
    )
}
