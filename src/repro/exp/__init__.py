"""The experiment framework: typed specs, run caching, fan-out, artifacts.

The paper's evaluation is a fixed grid — {Table 1, Figure 12, latency
sweep, ablation, grain, survey} x 6 interface models x 3 workloads.  This
package turns that grid into data:

* :mod:`repro.exp.spec` — :class:`ExperimentSpec`, the typed description
  of one experiment (name, params, required program runs, pure compute,
  text rendering, JSON artifact).
* :mod:`repro.exp.registry` — the decorator registry every
  ``repro.eval`` module registers its spec into; ``python -m repro``, the
  one evaluation driver, is a thin loop over it.
* :mod:`repro.exp.runcache` — an in-process cache keyed on
  ``(program, size, nodes)`` so one TAM execution feeds every experiment
  that prices it.
* :mod:`repro.exp.runner` — serial or ``ProcessPoolExecutor`` fan-out
  with deterministic, registry-ordered output.
* :mod:`repro.exp.artifacts` — versioned JSON results under
  ``results/``, alongside the existing text rendering.
"""

from repro.exp.artifacts import (
    SCHEMA_TAG,
    build_artifact,
    to_jsonable,
    validate_artifact,
    write_artifact,
)
from repro.exp.registry import all_specs, get, load_all, names, register
from repro.exp.runcache import (
    DEFAULT_SIZES,
    PAPER_SIZES,
    ProgramKey,
    RunCache,
    get_cache,
    resolve_key,
    run_program,
    set_cache,
)
from repro.exp.runner import ExperimentOutcome, iter_experiments, run_experiments
from repro.exp.spec import EvalOptions, ExperimentSpec

__all__ = [
    "SCHEMA_TAG",
    "build_artifact",
    "to_jsonable",
    "validate_artifact",
    "write_artifact",
    "all_specs",
    "get",
    "load_all",
    "names",
    "register",
    "DEFAULT_SIZES",
    "PAPER_SIZES",
    "ProgramKey",
    "RunCache",
    "get_cache",
    "resolve_key",
    "run_program",
    "set_cache",
    "ExperimentOutcome",
    "iter_experiments",
    "run_experiments",
    "EvalOptions",
    "ExperimentSpec",
]
