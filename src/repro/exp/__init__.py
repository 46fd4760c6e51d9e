"""The experiment framework: typed specs, run caching, fan-out, artifacts.

The paper's evaluation is a fixed grid — {Table 1, Figure 12, latency
sweep, ablation, grain, survey} x 6 interface models x 3 workloads.  This
package turns that grid into data:

* :mod:`repro.exp.spec` — :class:`ExperimentSpec`, the typed description
  of one experiment (name, params, required program runs, pure compute,
  text rendering, JSON artifact).
* :mod:`repro.exp.registry` — the section names in report order and
  the lookup of each ``repro.eval`` module's ``SPEC``; ``python -m
  repro``, the one evaluation driver, is a thin loop over it.
* :mod:`repro.exp.runcache` — an in-process cache keyed on
  ``(program, size, nodes)`` so one TAM execution feeds every experiment
  that prices it.
* :mod:`repro.exp.runner` — serial or ``ProcessPoolExecutor`` fan-out
  with deterministic, registry-ordered output.
* :mod:`repro.exp.artifacts` — versioned JSON results under
  ``results/``, alongside the existing text rendering.
"""
