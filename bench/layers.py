"""Per-layer attribution from outside the simulator.

:class:`Instrument` replaces chosen methods of ``repro`` classes, at
class level, with timing wrappers -- before the workload builds anything,
so every instance uses them.  Nothing under ``src/`` changes.

Each wrapped method is a *boundary* with a name.  A call's self time is
its duration minus the time of wrapped calls made inside it, tracked on
a stack.  Per-message boundaries are aggregated (calls, total, self);
coarse ones are also kept as spans -- name, start, end and parent span --
in memory until the benchmark writes them out.  Constructors of the
objects whose statistics the per-layer metrics read (fabrics, kernels,
TAM machines, tracers) capture their instances.

Every component ``tick`` in :data:`TICK_MODULES` is a boundary named
``<module>.<Class>.tick``, so the kernel's self time is its scan loop
alone.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

#: (module, class, method, boundary name, kept as a span).  A method of
#: ``"*"`` wraps every public function the class itself defines.
BOUNDARIES: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.sim.kernel", "SimKernel", "__init__", "sim.init", False),
    ("repro.sim.kernel", "SimKernel", "run", "sim.run", True),
    ("repro.network.fabric", "Fabric", "__init__", "network.fabric.init", True),
    ("repro.network.fabric", "Fabric", "step", "network.fabric.step", False),
    ("repro.network.routing", "DimensionOrder", "candidates",
     "network.routing.candidates", False),
    ("repro.network.routing", "AdaptiveRandom", "candidates",
     "network.routing.candidates", False),
    ("repro.network.routing", "EscapeVC", "candidates",
     "network.routing.candidates", False),
    ("repro.nic.interface", "NetworkInterface", "send", "nic.send", False),
    ("repro.nic.interface", "NetworkInterface", "next", "nic.next", False),
    ("repro.tam.runtime", "TamMachine", "__init__", "tam.init", True),
    ("repro.tam.runtime", "TamMachine", "load", "tam.load", True),
    ("repro.tam.runtime", "TamMachine", "run", "tam.run", True),
    ("repro.programs.matmul", "MatmulResult", "verify", "tam.verify", True),
    ("repro.tenancy.workload", "MultiTenantRun", "__init__", "tenancy.init", True),
    ("repro.tenancy.workload", "MultiTenantRun", "run", "tenancy.run", True),
    ("repro.obs.tracer", "Tracer", "__init__", "obs.tracer.init", False),
    ("repro.obs.tracer", "Tracer", "emit", "obs.tracer.emit", False),
    ("repro.obs.lineage", "LineageTracker", "*", "obs.lineage", False),
    ("repro.obs.metrics", "MetricsRecorder", "*", "obs.metrics", False),
)

#: Modules whose components' ``tick`` methods become boundaries.
TICK_MODULES = (
    "repro.network.fabric",
    "repro.network.traffic",
    "repro.eval.flowcontrol",
    "repro.tenancy.workload",
    "repro.tenancy.scheduler",
)

#: Boundaries whose instances the per-layer metrics read.
CAPTURED = ("sim.init", "network.fabric.init", "tam.init", "obs.tracer.init")

_EMPTY = (0, 0.0, 0.0)


class Instrument:
    """Wrappers, their aggregates, spans and captured instances."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: [name, start, end, parent index or None], seconds from origin.
        self.spans: List[list] = []
        self.instances: Dict[str, list] = {name: [] for name in CAPTURED}
        self.tick_boundaries: List[str] = []
        self._child_time: List[float] = []
        self._open_spans: List[int] = []

    def install(self) -> None:
        """Wrap every boundary that exists in the loaded source tree.

        A module, class or method missing from the tree (an older
        revision under ``--src``) is skipped, and its layer reads zero.
        """
        for module_name, class_name, method, name, span in BOUNDARIES:
            cls = _find_class(module_name, class_name)
            if cls is None:
                continue
            methods = [
                attr
                for attr, value in vars(cls).items()
                if inspect.isfunction(value)
                and (attr == method or (method == "*" and not attr.startswith("_")))
            ]
            for attr in methods:
                setattr(cls, attr, self.wrap(vars(cls)[attr], name, span))
        for module_name in TICK_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for cls in list(vars(module).values()):
                if (
                    isinstance(cls, type)
                    and cls.__module__ == module_name
                    and inspect.isfunction(vars(cls).get("tick"))
                ):
                    name = f"{module_name.removeprefix('repro.')}.{cls.__name__}.tick"
                    self.tick_boundaries.append(name)
                    cls.tick = self.wrap(cls.tick, name, span=False)

    def wrap(self, fn: Callable, name: str, span: bool = True) -> Callable:
        """``fn`` timed as boundary ``name``; also used by the benchmark
        for its own spans (setup, run, check)."""
        clock = time.perf_counter
        stack = self._child_time
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        captured = self.instances.get(name)
        spans = self.spans
        open_spans = self._open_spans
        origin = self.origin

        def wrapper(*args, **kwargs):
            if span:
                parent = open_spans[-1] if open_spans else None
                open_spans.append(len(spans))
                spans.append([name, 0.0, 0.0, parent])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if span:
                    record = spans[open_spans.pop()]
                    record[1] = start - origin
                    record[2] = end - origin
                if captured is not None:
                    captured.append(args[0])

        wrapper.__wrapped__ = fn
        return wrapper

    def boundaries(self) -> Dict[str, Dict[str, float]]:
        """Aggregates of every boundary that was called."""
        return {
            name: {"calls": int(c), "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.totals.items())
            if c
        }

    def metrics(self, extras: Dict[str, float]) -> Dict[str, float]:
        """The per-layer metrics, from boundaries, captured instances and
        the workload's ``extras``; a layer the run never entered reads 0."""

        def calls(name: str) -> int:
            return int(self.totals.get(name, _EMPTY)[0])

        def total(name: str) -> float:
            return self.totals.get(name, _EMPTY)[1]

        def own(name: str) -> float:
            return self.totals.get(name, _EMPTY)[2]

        def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return scale * numerator / denominator if denominator else 0.0

        fabrics = self.instances["network.fabric.init"]
        routers = [r for f in fabrics for r in f.routers]
        interfaces = [ni for f in fabrics for ni in f.interfaces]
        machines = self.instances["tam.init"]
        moves = sum(r.stats.forwarded + r.stats.ejected for r in routers)
        turns = sum(m.turns_executed for m in machines)
        schedulers = [
            n for n in self.tick_boundaries if n.startswith("tenancy.scheduler.")
        ]
        out = {
            "network.routing.candidates.calls": calls("network.routing.candidates"),
            "network.routing.candidates.self_s": own("network.routing.candidates"),
            "network.fabric.step.calls": calls("network.fabric.step"),
            "network.fabric.step.self_s": own("network.fabric.step"),
            "network.fabric.ns_per_move": ratio(
                total("network.fabric.step"), moves, 1e9
            ),
            "network.router.moves": moves,
            "network.router.blocked_moves": sum(
                r.stats.blocked_moves for r in routers
            ),
            "network.fabric.deliveries_refused": sum(
                f.stats.deliveries_refused for f in fabrics
            ),
            "network.fabric.mean_latency_cycles": ratio(
                sum(f.stats.total_latency for f in fabrics),
                sum(f.stats.delivered for f in fabrics),
            ),
            "network.fabric.init_s": total("network.fabric.init"),
            "network.traffic.source.self_s": own("network.traffic.TrafficSource.tick"),
            "network.traffic.sink.self_s": own("network.traffic.TrafficSink.tick"),
            "nic.send.calls": calls("nic.send"),
            "nic.send.self_s": own("nic.send"),
            "nic.send.accept_ratio": ratio(
                sum(ni.stats.sends for ni in interfaces), calls("nic.send")
            ),
            "nic.next.calls": calls("nic.next"),
            "nic.next.self_s": own("nic.next"),
            "nic.refused": sum(ni.stats.refused for ni in interfaces),
            "nic.diverts.privileged": sum(
                ni.stats.privileged_diverted for ni in interfaces
            ),
            "nic.diverts.pin": sum(ni.stats.pin_diverted for ni in interfaces),
            "nic.diverts.cap": sum(ni.stats.cap_diverted for ni in interfaces),
            "sim.cycles": sum(k.cycle for k in self.instances["sim.init"]),
            "sim.ticks": sum(calls(n) for n in self.tick_boundaries),
            "sim.run.self_s": own("sim.run"),
            "tam.load.self_s": own("tam.load"),
            "tam.run.self_s": own("tam.run"),
            "tam.turns": turns,
            "tam.messages": sum(m.stats.messages.total_messages for m in machines),
            "tam.instructions": sum(m.stats.total_instructions for m in machines),
            "tam.ns_per_turn": ratio(total("tam.run"), turns, 1e9),
            "tam.verify_s": total("tam.verify"),
            "tenancy.init_s": total("tenancy.init"),
            "tenancy.scheduler.tick.calls": sum(calls(n) for n in schedulers),
            "tenancy.scheduler.tick.self_s": sum(own(n) for n in schedulers),
            "obs.tracer.emit.calls": calls("obs.tracer.emit"),
            "obs.tracer.emit.self_s": own("obs.tracer.emit"),
            "obs.tracer.dropped": sum(
                t.dropped for t in self.instances["obs.tracer.init"]
            ),
            "obs.lineage.calls": calls("obs.lineage"),
            "obs.lineage.self_s": own("obs.lineage"),
            "obs.metrics.calls": calls("obs.metrics"),
            "obs.metrics.self_s": own("obs.metrics"),
        }
        out.update(extras)
        return out


def _find_class(module_name: str, class_name: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None)
