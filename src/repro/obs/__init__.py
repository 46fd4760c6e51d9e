"""Opt-in observability for the whole message path.

All pieces are zero-cost when not attached:

* :mod:`repro.obs.observer` — the one message-path event interface
  (:class:`Observer`) the tracer, metrics and lineage subscribe to;
* :mod:`repro.obs.tracer` — ring-buffered structured event tracing with
  cycle/turn timestamps and eviction-proof per-kind counts; the ring
  holds flat tuples and builds each event's detail dict when it is
  read;
* :mod:`repro.obs.metrics` — per-cycle time-series sampling (queue
  depths, link utilization, in-flight counts) read in one pass per
  cycle, the almost-full threshold-crossing timeline, and histograms
  and percentiles built from the series when they are exported;
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` JSON export, loadable
  in ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.lineage` / :mod:`repro.obs.breakdown` — per-message
  causal span tracing (lineage ids, typed phase spans, parent edges)
  with the exact-reconciliation latency breakdown and critical-path
  extraction on top, in simulated cycles;
* :mod:`repro.obs.where` — the host-time profiler behind ``python -m
  repro --profile``: timing wrappers on a fixed list of layer
  boundaries and component ticks, installed only for that run and
  written as ``where.json``.  It is not an observer and is not
  exported here; nothing imports it unless ``--profile`` is given.

The interfaces, the fabric, the TAM machine and the collectives engine
each hold one ``observer`` slot, and ``attach`` is the one way to fill
it.  A runner that builds its machine (``run_matmul``, ``run_queens``,
``run_nic_collective``) takes one ``observer=`` and attaches it to every
part it builds; ``run_hotspot`` takes its tracer, recorder and tracker
by role, because its payload reads them.  ``python -m repro --trace
--lineage`` wires everything together.

The package exports lazily (:pep:`562`): ``from repro.obs import
Tracer`` resolves the submodule on first attribute access, so importing
:mod:`repro.obs` costs nothing for runs that never observe anything.
"""

from typing import Dict, Tuple

#: Exported name -> submodule that defines it.  ``__getattr__`` imports
#: the submodule only when the name is first touched.
_EXPORTS: Dict[str, str] = {
    # observer
    "EVENTS": "observer",
    "Observer": "observer",
    "observer_of": "observer",
    # tracer
    "ALL_KINDS": "tracer",
    "BLOCK": "tracer",
    "DELIVER": "tracer",
    "DISPATCH": "tracer",
    "DIVERT": "tracer",
    "EJECT": "tracer",
    "HOP": "tracer",
    "INJECT": "tracer",
    "NEXT": "tracer",
    "REFUSE": "tracer",
    "SEND": "tracer",
    "SEND_STALL": "tracer",
    "TAM_HANDLE": "tracer",
    "TAM_POST": "tracer",
    "TraceEvent": "tracer",
    "Tracer": "tracer",
    # metrics
    "Histogram": "metrics",
    "MetricsRecorder": "metrics",
    "ThresholdCrossing": "metrics",
    "TimeSeries": "metrics",
    # chrome
    "chrome_trace": "chrome",
    "chrome_trace_events": "chrome",
    "write_chrome_trace": "chrome",
    # lineage
    "LineageRecord": "lineage",
    "LineageTracker": "lineage",
    "PHASES": "lineage",
    "Span": "lineage",
    # breakdown
    "LINEAGE_SCHEMA": "breakdown",
    "critical_path": "breakdown",
    "lineage_report": "breakdown",
    "phase_breakdown": "breakdown",
    "reconcile_lineage": "breakdown",
    "write_lineage": "breakdown",
}

__all__: Tuple[str, ...] = tuple(sorted(_EXPORTS))


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    module = import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
