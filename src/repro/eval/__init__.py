"""Evaluation harnesses that regenerate the paper's tables and figures.

This package is the public face of the evaluation layer.  The names
exported here are the supported surface for examples and tests — prefer
them over deep-importing ``repro.eval.<module>``.  Regenerate a section
with ``python -m repro --only <section>``.

Exports resolve lazily (:pep:`562`), so importing the package does not
pull in every study module; spec registration for the experiment
:mod:`~repro.exp.registry` happens via
:func:`repro.exp.registry.load_all`, which the ``python -m repro``
driver calls explicitly.
"""

from repro.exp import registry
from repro.exp.runcache import (
    DEFAULT_SIZES,
    PAPER_SIZES,
    ProgramKey,
    resolve_key,
    run_program,
)

# Public name -> (defining module, attribute there).  An alias such as
# ``grain_sweep`` renames a module-local ``sweep`` so the flat namespace
# stays unambiguous.
_LAZY_EXPORTS = {
    # Table 1.
    "collect_rows": ("repro.eval.table1", "collect_rows"),
    "render_report": ("repro.eval.table1", "render_report"),
    "rows_as_records": ("repro.eval.table1", "rows_as_records"),
    # Round trips.
    "collect_roundtrips": ("repro.eval.roundtrip", "collect"),
    "render_roundtrips": ("repro.eval.roundtrip", "render_roundtrips"),
    "roundtrip_cost": ("repro.eval.roundtrip", "roundtrip_cost"),
    # Throughput.
    "STANDARD_STREAM": ("repro.eval.throughput", "STANDARD_STREAM"),
    "collect_throughput": ("repro.eval.throughput", "collect"),
    "render_throughput": ("repro.eval.throughput", "render_throughput"),
    # Figure 12.
    "HeadlineMetrics": ("repro.eval.figure12", "HeadlineMetrics"),
    "headline_metrics": ("repro.eval.figure12", "headline_metrics"),
    "render_figure": ("repro.eval.figure12", "render_figure"),
    # Latency sweep.
    "cost_table_at_latency": ("repro.eval.latency", "cost_table_at_latency"),
    "latency_sweep": ("repro.eval.latency", "sweep"),
    "relative_overheads": ("repro.eval.latency", "relative_overheads"),
    "render_sweep": ("repro.eval.latency", "render_sweep"),
    # Ablation.
    "ABLATIONS": ("repro.eval.ablation", "ABLATIONS"),
    "render_ablation": ("repro.eval.ablation", "render_ablation"),
    "run_ablation": ("repro.eval.ablation", "run_ablation"),
    # Grain.
    "crossover_grain": ("repro.eval.grain", "crossover_grain"),
    "grain_sweep": ("repro.eval.grain", "sweep"),
    "render_grain": ("repro.eval.grain", "render_grain"),
    # Survey.
    "collect_survey": ("repro.eval.survey", "collect_survey"),
    "render_survey": ("repro.eval.survey", "render_survey"),
    # Multi-tenant serving.
    "compute_multitenant": ("repro.eval.multitenant", "compute_multitenant"),
    "multitenant_params": ("repro.eval.multitenant", "multitenant_params"),
    "render_multitenant": ("repro.eval.multitenant", "render_multitenant"),
}

__all__ = [
    "registry",
    "DEFAULT_SIZES",
    "PAPER_SIZES",
    "ProgramKey",
    "resolve_key",
    "run_program",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache so the lookup runs once
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
