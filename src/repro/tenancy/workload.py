"""Open-loop multi-tenant traffic and the machine that serves it.

The workload layer multiplexes hundreds-to-thousands of protection
domains over one mesh.  Each tenant is an open-loop arrival process —
heavy-tailed inter-burst gaps (Pareto or lognormal) with Pareto burst
sizes, all drawn from per-tenant :func:`~repro.utils.rng.stream_for`
streams so the schedule is a pure function of the seed — plus a
per-tenant destination mix.  Three roles reproduce the Section 2.1.1
hot-spot story at tenant granularity:

* ``flooder`` — one tenant sprays a fixed-rate flood at the hot node
  from several source nodes, exceeding the hot node's ejection and
  service bandwidth;
* ``victim`` — tenants whose destination mix concentrates on the hot
  node, so their messages share the flooded ejection channel and the
  hot node's receive scheduler;
* ``normal`` — background tenants with uniform destination mixes.

:class:`MultiTenantRun` assembles the full machine — interfaces with
per-tenant occupancy caps, cycle-stepped fabric, one of the
:mod:`repro.tenancy.scheduler` policies, an arrival pump, and per-node
servers — on one :class:`~repro.sim.kernel.SimKernel`, runs it for a
fixed horizon, and reports per-tenant QoS (reservoir-sampled dispatch
latency percentiles, throughput share, completion) plus the per-role
victim analysis the eval section renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from collections import deque

from repro.errors import ProtectionError
from repro.network.fabric import Fabric
from repro.network.topology import Mesh2D
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import pack_destination
from repro.nic.protection import check_pin
from repro.obs.metrics import Histogram
from repro.sim.component import SimComponent
from repro.sim.kernel import SimKernel
from repro.tenancy.scheduler import SwitchCosts, TenantPolicy, make_scheduler
from repro.utils.rng import SplitMix64, stream_for

#: Message type carried by all tenant traffic (type 1 is reserved).
TENANT_MTYPE = 2

#: Tenant roles.
ROLE_NORMAL = "normal"
ROLE_VICTIM = "victim"
ROLE_FLOODER = "flooder"

#: Reservoir size for per-tenant latency series (bounded memory across
#: thousands of tenants; exact until a tenant exceeds this many samples).
LATENCY_RESERVOIR = 128

#: Burst sizes are Pareto but clamped so no single draw floods the run.
MAX_BURST = 32

#: Cycles between the arrival pump's retries while a backlog waits.
RETRY_INTERVAL = 2


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity and traffic model.

    ``sources`` are the nodes it injects from (round-robin per message);
    ``dest_weights`` is its destination mix over all nodes.  Inter-burst
    gaps follow ``distribution`` (``"pareto"``, ``"lognormal"``, or
    ``"fixed"``) with mean ``gap_mean``; each burst holds a Pareto
    number of messages spaced ``burst_spacing`` cycles apart, all to one
    drawn destination.
    """

    pin: int
    role: str
    sources: Tuple[int, ...]
    dest_weights: Tuple[float, ...]
    distribution: str = "pareto"
    gap_mean: float = 8000.0
    burst_mean: float = 4.0
    burst_spacing: int = 2
    alpha: float = 1.5
    sigma: float = 1.0


class Arrival(NamedTuple):
    """One generated message: when, whose, from where, to where."""

    cycle: int
    pin: int
    source: int
    dest: int


def _draw_gap(spec: TenantSpec, rng: SplitMix64) -> int:
    """One inter-burst gap in cycles (>= 1)."""
    if spec.distribution == "fixed":
        gap = spec.gap_mean
    elif spec.distribution == "pareto":
        # X = xm * U^(-1/alpha); E[X] = alpha*xm/(alpha-1) = gap_mean.
        xm = spec.gap_mean * (spec.alpha - 1.0) / spec.alpha
        u = 1.0 - rng.next_float()  # (0, 1]
        gap = xm * u ** (-1.0 / spec.alpha)
    elif spec.distribution == "lognormal":
        # E[X] = exp(mu + sigma^2/2) = gap_mean.
        mu = math.log(spec.gap_mean) - spec.sigma * spec.sigma / 2.0
        u1 = 1.0 - rng.next_float()
        u2 = rng.next_float()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        gap = math.exp(mu + spec.sigma * z)
    else:
        raise ProtectionError(
            f"unknown arrival distribution {spec.distribution!r}"
        )
    return max(1, int(round(gap)))


def _draw_burst(spec: TenantSpec, rng: SplitMix64) -> int:
    """One burst size (>= 1, Pareto-tailed, clamped to MAX_BURST)."""
    if spec.burst_mean <= 1.0:
        return 1
    alpha = 1.3
    xm = spec.burst_mean * (alpha - 1.0) / alpha
    u = 1.0 - rng.next_float()
    size = int(xm * u ** (-1.0 / alpha))
    return max(1, min(size, MAX_BURST))


def make_tenants(
    n_tenants: int,
    n_nodes: int,
    seed: int,
    hot_node: int = 0,
    flooder: bool = True,
    gap_mean: float = 16000.0,
    victim_hot_weight: float = 0.8,
) -> List[TenantSpec]:
    """Build the tenant population for one run.

    PIN 1 is the flooder (when enabled), sending every 3 cycles from 4
    sources; the next ``n_tenants // 8`` PINs (at least one) are victims,
    the rest normal, with Pareto gaps.  Source nodes and destination mixes
    are drawn from a stream derived only from ``seed``, so the population
    is reproducible independent of the schedule draws.
    """
    if n_tenants < 1:
        raise ProtectionError("need at least one tenant")
    if n_nodes < 2:
        raise ProtectionError("need at least two nodes")
    rng = stream_for(seed, 0xBEEF)
    victim_count = max(1, n_tenants // 8)
    others = [node for node in range(n_nodes) if node != hot_node]
    specs: List[TenantSpec] = []
    for pin in range(1, n_tenants + 1):
        check_pin(pin)
        if flooder and pin == 1:
            sources = tuple(
                others[rng.next_below(len(others))] for _ in range(4)
            )
            weights = tuple(
                1.0 if node == hot_node else 0.0 for node in range(n_nodes)
            )
            specs.append(
                TenantSpec(
                    pin=pin,
                    role=ROLE_FLOODER,
                    sources=sources,
                    dest_weights=weights,
                    distribution="fixed",
                    gap_mean=3.0,
                    burst_mean=1.0,
                )
            )
            continue
        source = others[rng.next_below(len(others))]
        is_victim = pin <= victim_count + (1 if flooder else 0)
        if is_victim:
            spread = (1.0 - victim_hot_weight) / max(1, n_nodes - 2)
            weights = tuple(
                victim_hot_weight
                if node == hot_node
                else (0.0 if node == source else spread)
                for node in range(n_nodes)
            )
            role = ROLE_VICTIM
        else:
            weights = tuple(
                0.0 if node == source else 1.0 for node in range(n_nodes)
            )
            role = ROLE_NORMAL
        specs.append(
            TenantSpec(
                pin=pin,
                role=role,
                sources=(source,),
                dest_weights=weights,
                distribution="pareto",
                gap_mean=gap_mean,
            )
        )
    return specs


def build_schedule(
    tenants: Sequence[TenantSpec], gen_window: int, seed: int
) -> List[Arrival]:
    """The merged open-loop arrival schedule over ``[1, gen_window]``.

    Each tenant's draws come from ``stream_for(seed, pin)``, so the
    schedule is independent of tenant iteration order; the merge sorts
    by (cycle, pin, sequence) for a deterministic pump order.
    """
    arrivals: List[Arrival] = []
    for spec in tenants:
        rng = stream_for(seed, spec.pin)
        # Stagger the first burst uniformly inside one mean gap.
        t = 1 + rng.next_below(max(1, int(spec.gap_mean)))
        sent = 0
        while t <= gen_window:
            burst = _draw_burst(spec, rng)
            dest = rng.choice_index(list(spec.dest_weights))
            for index in range(burst):
                cycle = t + index * spec.burst_spacing
                if cycle > gen_window:
                    break
                source = spec.sources[sent % len(spec.sources)]
                arrivals.append(Arrival(cycle, spec.pin, source, dest))
                sent += 1
            t += _draw_gap(spec, rng)
    arrivals.sort(key=lambda a: (a.cycle, a.pin))
    return arrivals


class _ArrivalPump(SimComponent):
    """Injects the schedule, honouring the policy's injection gate.

    Due arrivals enter per-tenant backlogs; each tick the pump asks the
    scheduler which backlogged tenants may inject (gang admits only the
    slice owner) and drains those backlogs through the source nodes'
    output registers until a SEND stalls.  The backlog depth doubles as
    the gang policy's workload-side work signal.
    """

    name = "pump"

    def __init__(
        self,
        interfaces: Sequence[NetworkInterface],
        scheduler: TenantPolicy,
        schedule: Sequence[Arrival],
    ) -> None:
        self.interfaces = interfaces
        self.scheduler = scheduler
        self.schedule = list(schedule)
        self.index = 0
        self.blocked: Dict[int, Deque[Arrival]] = {}
        self.injected = 0
        self.injected_by_pin: Dict[int, int] = {}
        self.handle = None

    def backlog(self, pin: int) -> int:
        """Generated-but-not-yet-injected messages for ``pin``."""
        queue = self.blocked.get(pin)
        return len(queue) if queue is not None else 0

    def first_cycle(self) -> int:
        return self.schedule[0].cycle if self.schedule else 1

    def tick(self, cycle: int) -> None:
        schedule = self.schedule
        while self.index < len(schedule) and schedule[self.index].cycle <= cycle:
            arrival = schedule[self.index]
            self.index += 1
            queue = self.blocked.get(arrival.pin)
            if queue is None:
                queue = self.blocked[arrival.pin] = deque()
            queue.append(arrival)
        for pin in list(self.scheduler.injectable(self.blocked)):
            queue = self.blocked.get(pin)
            if queue is None:
                continue
            while queue and self._inject(queue[0], pin):
                queue.popleft()
            if not queue:
                del self.blocked[pin]
        if self.blocked:
            self.handle.wake_at(cycle + RETRY_INTERVAL)
        elif self.index < len(schedule):
            self.handle.wake_at(max(cycle + 1, schedule[self.index].cycle))
        else:
            self.handle.sleep()

    def _inject(self, arrival: Arrival, pin: int) -> bool:
        ni = self.interfaces[arrival.source]
        if ni.output_queue.is_full:
            return False
        # Compose under the tenant's PIN; the source's resident receive
        # PIN is unrelated, so save and restore it around the SEND.
        resident = ni.control["active_pin"]
        ni.control["active_pin"] = pin
        ni.write_output(0, pack_destination(arrival.dest))
        ni.write_output(1, arrival.cycle)  # generation stamp -> latency
        ni.write_output(2, 0)
        result = ni.send(TENANT_MTYPE)
        ni.control["active_pin"] = resident
        if result is not SendResult.SENT:
            return False
        self.injected += 1
        self.injected_by_pin[pin] = self.injected_by_pin.get(pin, 0) + 1
        return True


class _NodeServer(SimComponent):
    """One node's processor: dispatches one message per service slot,
    unless the receive scheduler holds it inside a switch window."""

    def __init__(self, run: "MultiTenantRun", node: int, interval: int) -> None:
        self.name = f"server{node}"
        self.run = run
        self.node = node
        self.interface = run.interfaces[node]
        self.interval = interval
        self.serviced = 0
        self.handle = None

    def tick(self, cycle: int) -> None:
        ni = self.interface
        if ni.msg_valid and not self.run.scheduler.stalled(self.node, cycle):
            message = ni.current_message
            self.run.record_dispatch(
                self.node, message.pin, cycle - message.word(1)
            )
            ni.next()
            self.serviced += 1
        self.handle.wake_at(cycle + self.interval)


class MultiTenantRun:
    """One policy serving one tenant population for a fixed horizon."""

    def __init__(
        self,
        scheduler_name: str,
        tenants: Sequence[TenantSpec],
        seed: int,
        width: int = 4,
        height: int = 4,
        gen_window: int = 12000,
        horizon: int = 16000,
        service_interval: int = 4,
        quantum: int = 50,
        slice_cycles: int = 80,
        switch_cycles: int = 4,
        tenant_cap: Optional[int] = 8,
    ) -> None:
        if horizon < gen_window:
            raise ProtectionError("horizon must cover the generation window")
        self.scheduler_name = scheduler_name
        self.tenants = list(tenants)
        self.spec_by_pin = {spec.pin: spec for spec in self.tenants}
        self.horizon = horizon
        topology = Mesh2D(width, height)
        self.interfaces = [
            NetworkInterface(node=node) for node in range(topology.n_nodes)
        ]
        self.fabric = Fabric(
            topology,
            self.interfaces,
            link_buffer_depth=2,
            serialization_cycles=4,
        )
        pins = [spec.pin for spec in self.tenants]
        self.scheduler = make_scheduler(
            scheduler_name,
            self.interfaces,
            pins,
            quantum=quantum,
            slice_cycles=slice_cycles,
            costs=SwitchCosts(switch_cycles=switch_cycles),
            tenant_cap=tenant_cap,
            fabric=self.fabric,
        )
        self.schedule = build_schedule(self.tenants, gen_window, seed)
        self.kernel = SimKernel()
        # Service order: the pump injects, the scheduler decides, the
        # servers dispatch, the fabric moves — registration order is the
        # kernel's intra-cycle order.
        self.pump = _ArrivalPump(self.interfaces, self.scheduler, self.schedule)
        self.pump.handle = self.kernel.register(self.pump)
        self.pump.handle.wake_at(self.pump.first_cycle())
        self.scheduler.bind(self.kernel)
        if hasattr(self.scheduler, "set_backlog_fn"):
            self.scheduler.set_backlog_fn(self.pump.backlog)
        self.servers = [
            _NodeServer(self, node, service_interval)
            for node in range(topology.n_nodes)
        ]
        for server in self.servers:
            server.handle = self.kernel.register(server)
            server.handle.wake_at(1 + (server.node % service_interval))
        self.kernel.register(self.fabric)
        # Per-tenant bounded-memory latency series plus exact per-role
        # aggregates (three roles, so exact is cheap).
        self.latency: Dict[int, Histogram] = {
            pin: Histogram(reservoir=LATENCY_RESERVOIR, seed=pin)
            for pin in pins
        }
        self.role_latency: Dict[str, Histogram] = {
            ROLE_NORMAL: Histogram(),
            ROLE_VICTIM: Histogram(),
            ROLE_FLOODER: Histogram(),
        }
        self.dispatched_by_pin: Dict[int, int] = {}
        self.dispatched = 0
        self.censored_by_pin: Dict[int, int] = {}
        self._finalized = False

    def record_dispatch(self, node: int, pin: int, latency: int) -> None:
        histogram = self.latency.get(pin)
        if histogram is None:  # pragma: no cover - unknown PIN guard
            return
        histogram.add(latency)
        self.role_latency[self.spec_by_pin[pin].role].add(latency)
        self.dispatched_by_pin[pin] = self.dispatched_by_pin.get(pin, 0) + 1
        self.dispatched += 1

    def run(self) -> int:
        """Advance the machine to the horizon; returns cycles executed."""
        cycles = self.kernel.run(cycles=self.horizon)
        self._finalize()
        return cycles

    def _finalize(self) -> None:
        """Fold right-censored arrivals into the latency series.

        A starved tenant's messages never dispatch inside the horizon;
        dropping them would make a starving scheduler look *fast* (only
        its easy dispatches would be measured).  Each undispatched
        arrival instead contributes its age at the horizon — a lower
        bound on its true latency — so the percentiles reflect
        starvation.  Per tenant the undispatched arrivals are the last
        ones generated (dispatch is FIFO per tenant), so the ages are
        exact per-arrival, in schedule order for determinism.
        """
        if self._finalized:
            return
        self._finalized = True
        generated_cycles: Dict[int, List[int]] = {}
        for arrival in self.schedule:
            generated_cycles.setdefault(arrival.pin, []).append(arrival.cycle)
        for spec in self.tenants:
            cycles = generated_cycles.get(spec.pin, [])
            censored = len(cycles) - self.dispatched_by_pin.get(spec.pin, 0)
            if censored <= 0:
                continue
            self.censored_by_pin[spec.pin] = censored
            histogram = self.latency[spec.pin]
            role_histogram = self.role_latency[spec.role]
            for cycle in cycles[-censored:]:
                age = self.horizon - cycle
                histogram.add(age)
                role_histogram.add(age)

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def tenant_table(self) -> List[Dict[str, object]]:
        """Per-tenant QoS rows, ascending PIN (the byte-identical table)."""
        generated: Dict[int, int] = {}
        for arrival in self.schedule:
            generated[arrival.pin] = generated.get(arrival.pin, 0) + 1
        total = self.dispatched or 1
        rows: List[Dict[str, object]] = []
        for spec in self.tenants:
            summary = self.latency[spec.pin].summary()
            dispatched = self.dispatched_by_pin.get(spec.pin, 0)
            rows.append(
                {
                    "pin": spec.pin,
                    "role": spec.role,
                    "generated": generated.get(spec.pin, 0),
                    "injected": self.pump.injected_by_pin.get(spec.pin, 0),
                    "dispatched": dispatched,
                    "censored": self.censored_by_pin.get(spec.pin, 0),
                    "share": round(dispatched / total, 6),
                    "p50": summary["p50"],
                    "p99": summary["p99"],
                    "mean": summary["mean"],
                }
            )
        return rows

    def role_summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate latency per role (the victim-analysis numbers)."""
        return {
            role: histogram.summary()
            for role, histogram in self.role_latency.items()
        }

    def payload(self) -> Dict[str, object]:
        """The whole run as plain JSON types."""
        scheduled = len(self.schedule)
        return {
            "scheduler": self.scheduler_name,
            "tenants": len(self.tenants),
            "nodes": len(self.interfaces),
            "scheduled": scheduled,
            "injected": self.pump.injected,
            "dispatched": self.dispatched,
            "completion": round(self.dispatched / (scheduled or 1), 4),
            "switches": self.scheduler.switches,
            "redelivered": self.scheduler.redelivered,
            "diverted": dict(self.scheduler.diverted_by_reason),
            "peak_in_flight": self.fabric.stats.peak_in_flight,
            "roles": self.role_summary(),
            "tenant_table": self.tenant_table(),
        }
