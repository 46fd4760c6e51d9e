"""Where the host time went: the profiler behind ``python -m repro --profile``.

:class:`Instrument` replaces each layer boundary in :data:`BOUNDARIES`
-- a method of a ``repro`` class, or the driver's per-section
:func:`~repro.exp.runner.run_one` -- with a timing wrapper, at class (or
module) level, so every instance built while it is installed runs
through it.  A call's self time is its duration minus the time of the
wrapped calls made inside it, kept on a stack.  Each boundary reports
its calls, total seconds and self seconds.

``run_one`` is the root: every other boundary runs inside it, so one
section's self times sum to its total.  The driver takes the totals
after each section (:meth:`Instrument.take`), prints them
(:func:`render_where`) and writes ``where.json`` (:func:`write_where`).

Nothing imports this module unless ``--profile`` is given, and nothing
is wrapped outside :meth:`Instrument.install` /
:meth:`Instrument.uninstall`, so an unprofiled run executes the original
functions.  The profiled run is the run that ships: no loop is swapped
and no observer is attached.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.utils.tables import render_table

WHERE_SCHEMA = "repro-where/v1"

#: The root boundary: one call per section.
ROOT = "run_one"

#: Every boundary as (module, qualified name).  A name ending in ``*``
#: wraps every function the class defines with that prefix, aggregated
#: under the pattern.  The ``tick`` entries are every kernel component.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("repro.exp.runner", ROOT),
    ("repro.sim.kernel", "SimKernel.run"),
    ("repro.isa.machine", "Machine.run"),
    ("repro.network.fabric", "Fabric.__init__"),
    ("repro.network.fabric", "Fabric.step"),
    ("repro.network.routing", "AdaptiveRandom.rank"),
    ("repro.nic.interface", "NetworkInterface.send"),
    ("repro.nic.interface", "NetworkInterface.next"),
    ("repro.tam.runtime", "TamMachine.load"),
    ("repro.tam.runtime", "TamMachine.run"),
    ("repro.tenancy.workload", "MultiTenantRun.__init__"),
    ("repro.tenancy.workload", "MultiTenantRun.run"),
    ("repro.obs.tracer", "Tracer.emit"),
    ("repro.obs.metrics", "MetricsRecorder.on_step"),
    ("repro.obs.lineage", "LineageTracker.on_*"),
    ("repro.network.fabric", "Fabric.tick"),
    ("repro.network.fabric", "_FabricComponent.tick"),
    ("repro.network.traffic", "TrafficSource.tick"),
    ("repro.network.traffic", "TrafficSink.tick"),
    ("repro.api.cluster", "_NodeComponent.tick"),
    ("repro.collectives.engine", "NicHandlerEngine.tick"),
    ("repro.tenancy.scheduler", "RoundRobinScheduler.tick"),
    ("repro.tenancy.scheduler", "QuantumScheduler.tick"),
    ("repro.tenancy.scheduler", "GangTenantScheduler.tick"),
    ("repro.tenancy.workload", "_ArrivalPump.tick"),
    ("repro.tenancy.workload", "_NodeServer.tick"),
    ("repro.eval.flowcontrol", "_Sender.tick"),
    ("repro.eval.flowcontrol", "_Receiver.tick"),
)


def resolve(module_name: str, qualname: str) -> List[Tuple[Any, str]]:
    """The (owner, attribute) pairs a boundary wraps.

    Raises :class:`AttributeError` when the class, method or pattern
    names nothing, so a renamed boundary fails loudly instead of
    reading zero.
    """
    *path, attr = qualname.split(".")
    owner: Any = importlib.import_module(module_name)
    for part in path:
        owner = vars(owner).get(part)
        if not inspect.isclass(owner):
            raise AttributeError(f"boundary {module_name}.{qualname}: no class {part}")
    if attr.endswith("*"):
        attrs = [
            name
            for name, value in vars(owner).items()
            if name.startswith(attr[:-1]) and inspect.isfunction(value)
        ]
    else:
        attrs = [attr] if inspect.isfunction(vars(owner).get(attr)) else []
    if not attrs:
        raise AttributeError(f"boundary {module_name}.{qualname} names no function")
    return [(owner, name) for name in attrs]


class Instrument:
    """Timing wrappers on every boundary, and their per-boundary totals."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self._totals: Dict[str, List[float]] = {}
        #: Time of wrapped calls made inside each open call.
        self._child_time: List[float] = []
        #: (owner, attribute, original function) of every wrapper.
        self._installed: List[Tuple[Any, str, Callable]] = []

    def install(self) -> None:
        """Wrap every boundary; raises before wrapping any if one is missing."""
        targets = [
            (qualname, owner, attr)
            for module_name, qualname in BOUNDARIES
            for owner, attr in resolve(module_name, qualname)
        ]
        for qualname, owner, attr in targets:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, qualname))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        clock = time.perf_counter
        stack = self._child_time
        totals = self._totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> Dict[str, Dict[str, float]]:
        """Every boundary called since the last take, then zero them all."""
        taken = {}
        for name, entry in sorted(self._totals.items()):
            if entry[0]:
                calls, total, own = entry
                taken[name] = {"calls": calls, "total_s": total, "self_s": own}
                entry[:] = [0, 0.0, 0.0]
        return taken


def render_where(sections: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    """One table per section, boundaries by self time, largest first."""
    tables = []
    for section, boundaries in sections.items():
        total = boundaries[ROOT]["total_s"]
        rows = [
            [
                name,
                entry["calls"],
                f"{entry['total_s']:.4f}",
                f"{entry['self_s']:.4f}",
                f"{entry['self_s'] / total:.1%}",
            ]
            for name, entry in sorted(
                boundaries.items(), key=lambda item: -item[1]["self_s"]
            )
        ]
        tables.append(
            render_table(
                ["boundary", "calls", "total s", "self s", "self share"],
                rows,
                title=f"profile: {section} ({total:.3f} s host time)",
            )
        )
    return "\n\n".join(tables)


def write_where(directory: Path, sections: Dict[str, Dict[str, Dict[str, float]]]) -> Path:
    """Write ``where.json`` under ``directory``; returns its path."""
    path = Path(directory) / "where.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": WHERE_SCHEMA,
        "sections": {
            section: {"total_s": boundaries[ROOT]["total_s"], "boundaries": boundaries}
            for section, boundaries in sections.items()
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
