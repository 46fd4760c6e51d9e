"""Typed experiment descriptions.

An :class:`ExperimentSpec` is the contract between one evaluation study
and the driver: how to derive its parameters from the CLI options, which
TAM program runs it needs (so the run cache can execute each exactly
once), how to compute its results (pure, picklable — safe to ship to a
worker process), how to render them as the paper-faithful text report,
and what its JSON artifact contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exp.runcache import ProgramKey

Params = Dict[str, Any]
Payload = Dict[str, Any]


@dataclass(frozen=True)
class EvalOptions:
    """The CLI knobs every experiment derives its parameters from.

    ``trace`` opts sections that support it into message-path tracing
    (:mod:`repro.obs`); ``trace_dir`` is where they write the Chrome
    ``trace_event`` JSON and metrics time-series.  Both stay plain data
    (a string path, not a Path object with host semantics baked in) so
    options pickle cleanly into ``--jobs`` worker processes.

    ``lineage`` opts sections that support it into span-based causal
    lineage tracing (:mod:`repro.obs.lineage`): per-message phase spans,
    the exact-reconciliation latency breakdown, and the causal critical
    path, written as a versioned ``lineage.json`` under ``trace_dir``.
    """

    paper_scale: bool = False
    trace: bool = False
    trace_dir: Optional[str] = None
    lineage: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """One entry of the evaluation grid.

    The four callables split one study into its phases:

    * ``params(options)`` — resolve the concrete parameter set.
    * ``programs(params)`` — the :class:`ProgramKey` runs the compute
      phase will read from the run cache.  The runner pre-executes the
      deduplicated union of these across all selected experiments.
    * ``compute(params)`` — the pure computation; returns a picklable
      payload and must not print.
    * ``render(params, payload)`` — the text report, byte-compatible
      with the pre-framework harness output.
    * ``artifact(params, payload)`` — the JSON-serialisable result body;
      defaults to ``to_jsonable(payload)`` when omitted.
    """

    name: str
    title: str
    produces: Tuple[str, ...]
    params: Callable[[EvalOptions], Params]
    compute: Callable[[Params], Payload]
    render: Callable[[Params, Payload], str]
    programs: Optional[Callable[[Params], Tuple[ProgramKey, ...]]] = None
    artifact: Optional[Callable[[Params, Payload], Dict[str, Any]]] = None

    def required_programs(self, params: Params) -> Tuple[ProgramKey, ...]:
        """The program runs this experiment reads from the cache."""
        if self.programs is None:
            return ()
        return tuple(self.programs(params))
