"""Run selected experiments serially or fanned out across processes.

TAM programs are pure-Python and CPU-bound, so ``--jobs N`` uses a
``ProcessPoolExecutor`` for real wall-clock parallelism.  The fan-out is
dependency-aware, not phased:

* The deduplicated union of every selected experiment's required
  :class:`ProgramKey` runs is submitted first; each worker returns the
  run's :class:`~repro.tam.stats.TamStats` through its future.
  Submitting programs exactly once from the parent is what guarantees
  at-most-one execution per parameter set even across process
  boundaries.
* Each experiment is submitted the moment its required program runs
  have completed (immediately, for experiments that need none), with
  their stats as an argument that seeds the worker's run cache, so
  cheap kernel-measurement sections overlap the long program
  executions instead of waiting behind a global barrier.
* Results are yielded in registry order regardless of completion order,
  so output stays deterministic and byte-comparable to a serial run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Sequence

from repro.exp import registry
from repro.exp.artifacts import build_artifact, to_jsonable
from repro.exp.runcache import ProgramKey, get_cache
from repro.exp.spec import EvalOptions, ExperimentSpec

if TYPE_CHECKING:
    from repro.tam.stats import TamStats


@dataclass
class ExperimentOutcome:
    """Everything the driver needs from one finished experiment."""

    name: str
    title: str
    text: str
    #: Carries the run's host seconds as ``wall_clock_seconds``.
    artifact: Dict[str, Any]


def run_one(spec: ExperimentSpec, params: Dict[str, Any]) -> ExperimentOutcome:
    """Execute one experiment in the current process."""
    start = time.perf_counter()
    cache = get_cache()
    for key in spec.required_programs(params):
        cache.ensure(key)
    payload = spec.compute(params)
    text = spec.render(params, payload)
    data = spec.artifact(params, payload) if spec.artifact else to_jsonable(payload)
    wall_clock = time.perf_counter() - start
    artifact = build_artifact(spec.name, params, spec.produces, data, wall_clock)
    return ExperimentOutcome(spec.name, spec.title, text, artifact)


# ---------------------------------------------------------------------------
# Worker-process entry points (must be module-level for pickling).
# ---------------------------------------------------------------------------


def _worker_program(key: ProgramKey) -> TamStats:
    return get_cache().ensure(key)


def _worker_experiment(
    name: str, params: Dict[str, Any], stats: Dict[ProgramKey, TamStats]
) -> ExperimentOutcome:
    cache = get_cache()
    for key, value in stats.items():
        cache.put(key, value)
    return run_one(registry.get(name), params)


# ---------------------------------------------------------------------------
# Driver API.
# ---------------------------------------------------------------------------


def effective_jobs(jobs: int) -> int:
    """The worker count actually used for a ``--jobs`` request."""
    return max(1, min(jobs, os.cpu_count() or 1))


def iter_experiments(
    specs: Sequence[ExperimentSpec], options: EvalOptions, jobs: int = 1
) -> Iterator[ExperimentOutcome]:
    """Yield outcomes for ``specs`` in order; parallel when ``jobs > 1``.

    ``jobs`` is capped at ``os.cpu_count()``: the sections are CPU-bound,
    so workers beyond the core count only add process-pool overhead (a
    4-worker fan-out on a 1-CPU host measured *slower* than serial).
    Callers can read the cap applied via :func:`effective_jobs`.
    """
    jobs = effective_jobs(jobs)
    params_by_name = {spec.name: spec.params(options) for spec in specs}
    if jobs <= 1:
        for spec in specs:
            yield run_one(spec, params_by_name[spec.name])
        return

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # Every required program run, submitted exactly once.
        keys = dict.fromkeys(
            key
            for spec in specs
            for key in spec.required_programs(params_by_name[spec.name])
        )
        program_futures: Dict[ProgramKey, Future] = {
            key: pool.submit(_worker_program, key) for key in keys
        }
        # Experiments launch as soon as their program runs have returned
        # (a failed run raises here); ones with no requirements launch now.
        exp_futures: Dict[str, Future] = {}
        pending = list(specs)

        def submit_ready() -> None:
            for spec in pending[:]:
                params = params_by_name[spec.name]
                deps = {key: program_futures[key] for key in spec.required_programs(params)}
                if all(future.done() for future in deps.values()):
                    stats = {key: future.result() for key, future in deps.items()}
                    exp_futures[spec.name] = pool.submit(
                        _worker_experiment, spec.name, params, stats
                    )
                    pending.remove(spec)

        submit_ready()
        unfinished = set(program_futures.values())
        while pending:
            _, unfinished = wait(unfinished, return_when=FIRST_COMPLETED)
            submit_ready()
        for spec in specs:
            yield exp_futures[spec.name].result()


def run_experiments(
    specs: Sequence[ExperimentSpec], options: EvalOptions, jobs: int = 1
) -> List[ExperimentOutcome]:
    """:func:`iter_experiments`, fully materialised."""
    return list(iter_experiments(specs, options, jobs=jobs))
