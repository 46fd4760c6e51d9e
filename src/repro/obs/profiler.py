"""In-run profiling: where do the simulated cycles (and the host's
wall-clock) go?

The tracer answers *what happened* on the message path and the metrics
recorder *how loaded* the machine was; :class:`SimProfiler` answers the
remaining evaluation question — sPIN-style per-handler time attribution:
which component consumed the cycles.  It attaches to a
:class:`~repro.sim.kernel.SimKernel` (``kernel.attach_profiler``) and
records, per registered component:

* **serviced ticks** — cycles in which the component actually ran
  (it was awake and the kernel called ``tick``);
* **wall seconds** — host time spent inside those ticks;
* **utilization** — serviced ticks over total kernel cycles, which for
  wake/sleep components is exactly the fraction of simulated time they
  were awake (the kernel only ticks awake components);
* **timed wakes** — how often a ``wake_at`` promotion returned the
  component to the scan.

Like the tracer, profiling is *zero-cost when off*: the kernel keeps a
``_profiler`` reference defaulting to ``None`` and selects the profiled
run loop only when one is attached, so an unprofiled run executes the
original loop byte for byte and no component ever grows a profiling
attribute (``tests/obs/test_profiler.py`` pins both properties).

Beyond kernel components the profiler is a small counter/gauge registry
that the rest of the observability layer feeds into:

* ``track(name)`` opens an attribution row for work not driven by a
  kernel — the TAM runtime uses it for per-node turn attribution;
* ``set_counter`` / ``add_counter`` hold exact integer totals — the TAM
  runtime folds each run's :class:`~repro.tam.stats.TamStats` in here;
* ``set_gauge`` holds point-in-time measurements —
  :meth:`repro.obs.metrics.MetricsRecorder.feed_profiler` publishes its
  per-series summaries this way.

With ``sample_interval > 0`` the profiled kernel loop additionally
snapshots cumulative serviced ticks every N cycles; the Chrome exporter
(:mod:`repro.obs.chrome`) renders those snapshots as a counter track
alongside the event and metrics tracks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReconciliationError
from repro.utils.tables import render_table


class ComponentProfile:
    """One attribution row: serviced ticks and wall seconds."""

    __slots__ = ("name", "ticks", "seconds", "timed_wakes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ticks = 0
        self.seconds = 0.0
        self.timed_wakes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComponentProfile {self.name}: {self.ticks} ticks {self.seconds:.4f}s>"


class SimProfiler:
    """Per-component cycle/time attribution plus a counter/gauge registry.

    One profiler serves one kernel's component attribution (indices are
    bound to the kernel's registration order on the first profiled run)
    plus any number of :meth:`track` rows and registry entries.
    ``sample_interval`` > 0 snapshots cumulative serviced ticks every N
    cycles for the Chrome counter track; 0 disables sampling.
    """

    def __init__(self, sample_interval: int = 0) -> None:
        if sample_interval < 0:
            raise ValueError("sample_interval must be >= 0")
        self.sample_interval = sample_interval
        self.cycles = 0
        self.runs = 0
        #: Kernel-bound rows, index-aligned with the kernel's handles.
        self.kernel_components: List[ComponentProfile] = []
        #: Non-kernel rows opened with :meth:`track`, in creation order.
        self.tracked: Dict[str, ComponentProfile] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: Sampled (cycle, cumulative-ticks-per-kernel-component) pairs.
        self.samples: List[Tuple[int, Tuple[int, ...]]] = []

    # ------------------------------------------------------------------
    # Kernel binding (called by SimKernel's profiled run path).
    # ------------------------------------------------------------------

    def bind_components(self, names: List[str]) -> List[ComponentProfile]:
        """Align the kernel rows with ``names`` (idempotent, extend-only).

        Components registered since the last run gain fresh rows;
        existing rows keep accumulating across runs.
        """
        for index, name in enumerate(names):
            if index < len(self.kernel_components):
                continue
            self.kernel_components.append(ComponentProfile(name))
        return self.kernel_components

    def sample_now(self, cycle: int) -> None:
        """Record one cumulative-ticks snapshot (the Chrome counter row)."""
        self.samples.append(
            (cycle, tuple(c.ticks for c in self.kernel_components))
        )

    # ------------------------------------------------------------------
    # Non-kernel attribution and the registry.
    # ------------------------------------------------------------------

    def track(self, name: str) -> ComponentProfile:
        """An attribution row for work not driven by a kernel."""
        profile = self.tracked.get(name)
        if profile is None:
            profile = self.tracked[name] = ComponentProfile(name)
        return profile

    def add_counter(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_counter(self, name: str, value: int) -> None:
        """Absolute counter store (used by cumulative-stats feeders)."""
        self.counters[name] = value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------

    def components(self) -> List[ComponentProfile]:
        """Every attribution row: kernel-bound first, then tracked."""
        return list(self.kernel_components) + list(self.tracked.values())

    def utilization(self, profile: ComponentProfile) -> Optional[float]:
        """Serviced-tick fraction of kernel cycles (None off-kernel)."""
        if profile in self.tracked.values() or self.cycles == 0:
            return None
        return profile.ticks / self.cycles

    def to_dict(self, include_samples: bool = False) -> Dict[str, Any]:
        """The whole profile as plain JSON types.

        ``seconds`` is the one volatile field; everything else is
        deterministic for a deterministic workload, which is what the
        determinism pin in ``tests/obs/test_profiler.py`` compares.
        """
        components: Dict[str, Any] = {}
        for profile in self.kernel_components:
            entry: Dict[str, Any] = {
                "ticks": profile.ticks,
                "seconds": round(profile.seconds, 6),
                "timed_wakes": profile.timed_wakes,
            }
            if self.cycles:
                entry["utilization"] = round(profile.ticks / self.cycles, 6)
            components[profile.name] = entry
        for profile in self.tracked.values():
            components[profile.name] = {
                "ticks": profile.ticks,
                "seconds": round(profile.seconds, 6),
            }
        out: Dict[str, Any] = {
            "cycles": self.cycles,
            "runs": self.runs,
            "components": components,
            "counters": dict(self.counters),
            "gauges": {k: round(v, 6) for k, v in self.gauges.items()},
        }
        if include_samples:
            out["samples"] = {
                "interval": self.sample_interval,
                "names": [c.name for c in self.kernel_components],
                "cycles": [cycle for cycle, _ in self.samples],
                "ticks": [list(ticks) for _, ticks in self.samples],
            }
        return out

    def table(self) -> str:
        """The terminal attribution table."""
        return render_profile(self.to_dict())


def render_profile(profile: Mapping[str, Any]) -> str:
    """Render a :meth:`SimProfiler.to_dict` payload as terminal tables.

    A module function (not a method) so report renderers can format a
    profile that crossed a process or JSON boundary as plain data.
    """
    cycles = profile.get("cycles", 0)
    components: Mapping[str, Any] = profile.get("components", {})
    total_ticks = sum(entry.get("ticks", 0) for entry in components.values())
    total_seconds = sum(entry.get("seconds", 0.0) for entry in components.values())
    rows = []
    for name, entry in components.items():
        ticks = entry.get("ticks", 0)
        seconds = entry.get("seconds", 0.0)
        utilization = entry.get("utilization")
        rows.append(
            [
                name,
                ticks,
                f"{ticks / total_ticks * 100:.1f}%" if total_ticks else "-",
                f"{seconds:.4f}",
                f"{seconds / total_seconds * 100:.1f}%" if total_seconds else "-",
                f"{utilization * 100:.1f}%" if utilization is not None else "-",
            ]
        )
    title = f"cycle/time attribution ({cycles} kernel cycles)"
    tables = [
        render_table(
            ["component", "ticks", "tick share", "wall s", "wall share", "awake"],
            rows,
            title=title,
        )
    ]
    counters = profile.get("counters") or {}
    gauges = profile.get("gauges") or {}
    if counters or gauges:
        registry_rows = [[name, value] for name, value in sorted(counters.items())]
        registry_rows += [
            [name, f"{value:g}"] for name, value in sorted(gauges.items())
        ]
        tables.append(render_table(["registry entry", "value"], registry_rows))
    return "\n\n".join(tables)


def reconcile(checks: Mapping[str, Tuple[float, float]]) -> None:
    """Cross-validate independent accountings; raise on any mismatch.

    ``checks`` maps an invariant name to an ``(expected, observed)``
    pair.  This is the opt-in verification hook the reconciliation tests
    use to pin the profiler's tick attribution against the tracer's
    eviction-proof event counts — it never runs on a hot path.
    """
    mismatches = [
        f"{name}: expected {expected}, observed {observed}"
        for name, (expected, observed) in checks.items()
        if expected != observed
    ]
    if mismatches:
        raise ReconciliationError(
            "profile/trace reconciliation failed:\n  " + "\n  ".join(mismatches)
        )
