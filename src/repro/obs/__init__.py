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
  written as ``where.json``.  It is not an observer; nothing imports
  it unless ``--profile`` is given.

The interfaces, the fabric, the TAM machine and the collectives engine
each hold one ``observer`` slot, and ``attach`` is the one way to fill
it.  A runner that builds its machine (``run_matmul``, ``run_queens``,
``run_nic_collective``) takes one ``observer=`` and attaches it to every
part it builds; ``run_hotspot`` takes its tracer, recorder and tracker
by role, because its payload reads them.  ``python -m repro --trace
--lineage`` wires everything together.

Import each name from the submodule that defines it (``from
repro.obs.tracer import Tracer``).  The package itself imports nothing,
so a run that observes nothing loads only :mod:`repro.obs.observer`,
the slot type every observed part imports.
"""
