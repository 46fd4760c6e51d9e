"""Run selected experiments serially or fanned out across processes.

TAM programs are pure-Python and CPU-bound, so ``--jobs N`` uses a
``ProcessPoolExecutor`` for real wall-clock parallelism.  The fan-out is
dependency-aware, not phased:

* The deduplicated union of every selected experiment's required
  :class:`ProgramKey` runs is submitted first, each worker writing its
  pickled stats into the shared on-disk run cache.  Submitting programs
  exactly once from the parent is what guarantees at-most-one execution
  per parameter set even across process boundaries.
* Each experiment is submitted the moment its required program runs
  have completed (immediately, for experiments that need none), so
  cheap kernel-measurement sections overlap the long program
  executions instead of waiting behind a global barrier.
* Results are yielded in registry order regardless of completion order,
  so output stays deterministic and byte-comparable to a serial run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.exp import registry
from repro.exp.artifacts import build_artifact, to_jsonable
from repro.exp.runcache import ProgramKey, RunCache, get_cache, set_cache
from repro.exp.spec import EvalOptions, ExperimentSpec


@dataclass
class ExperimentOutcome:
    """Everything the driver needs from one finished experiment."""

    name: str
    title: str
    text: str
    artifact: Dict[str, Any]
    wall_clock_seconds: float


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
    return ExperimentOutcome(spec.name, spec.title, text, artifact, wall_clock)


def _ordered_program_keys(
    specs: Sequence[ExperimentSpec], params_by_name: Dict[str, Dict[str, Any]]
) -> List[ProgramKey]:
    """The deduplicated union of required runs, in first-use order."""
    keys: List[ProgramKey] = []
    seen = set()
    for spec in specs:
        for key in spec.required_programs(params_by_name[spec.name]):
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# Worker-process entry points (must be module-level for pickling).
# ---------------------------------------------------------------------------


def _worker_init(cache_dir: Optional[str]) -> None:
    set_cache(RunCache(disk_dir=cache_dir))
    registry.load_all()


def _worker_program(key: ProgramKey) -> ProgramKey:
    get_cache().ensure(key)
    return key


def _worker_experiment(name: str, params: Dict[str, Any]) -> ExperimentOutcome:
    return run_one(registry.get(name), params)


# ---------------------------------------------------------------------------
# Driver API.
# ---------------------------------------------------------------------------


def effective_jobs(jobs: int) -> int:
    """The worker count actually used for a ``--jobs`` request."""
    return max(1, min(jobs, os.cpu_count() or 1))


def iter_experiments(
    specs: Sequence[ExperimentSpec],
    options: EvalOptions,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
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
        cache = get_cache()
        if cache_dir is not None and cache.disk_dir is None:
            cache.disk_dir = Path(cache_dir)
        for spec in specs:
            yield run_one(spec, params_by_name[spec.name])
        return

    # Parallel: the workers communicate through a shared disk cache.
    scratch: Optional[str] = None
    if cache_dir is None:
        cache_dir = get_cache().disk_dir
    if cache_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-runcache-")
        cache_dir = Path(scratch)
    try:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_worker_init,
            initargs=(str(cache_dir),),
        ) as pool:
            keys = _ordered_program_keys(specs, params_by_name)
            # Every required program run, submitted exactly once.
            program_futures: Dict[ProgramKey, Future] = {
                key: pool.submit(_worker_program, key) for key in keys
            }
            # Experiments launch as soon as their program runs land in
            # the shared cache; ones with no requirements launch now.
            exp_futures: Dict[str, Future] = {}
            pending = list(specs)

            def submit_ready() -> None:
                for spec in pending[:]:
                    deps = [
                        program_futures[key]
                        for key in spec.required_programs(params_by_name[spec.name])
                    ]
                    if all(future.done() for future in deps):
                        exp_futures[spec.name] = pool.submit(
                            _worker_experiment, spec.name, params_by_name[spec.name]
                        )
                        pending.remove(spec)

            submit_ready()
            unfinished = set(program_futures.values())
            while pending:
                done, unfinished = wait(unfinished, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()  # propagate program failures eagerly
                submit_ready()
            for spec in specs:
                yield exp_futures[spec.name].result()
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def run_experiments(
    specs: Sequence[ExperimentSpec],
    options: EvalOptions,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
) -> List[ExperimentOutcome]:
    """:func:`iter_experiments`, fully materialised."""
    return list(iter_experiments(specs, options, jobs=jobs, cache_dir=cache_dir))
