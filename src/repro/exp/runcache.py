"""In-process caching of TAM program executions.

Every evaluation study prices the same handful of program runs — the
Figure 12 bars, the latency sweep, and the ablation all start from one
``matmul`` execution.  The cache keys each run on
``(program, size, nodes)``, so within one process each parameter set
executes at most once.  A ``--jobs N`` fan-out keeps that guarantee
across processes by executing each run in one worker and handing its
:class:`~repro.tam.stats.TamStats` to the experiments that read it
(:mod:`repro.exp.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import EvaluationError

if TYPE_CHECKING:
    from repro.tam.stats import TamStats

DEFAULT_SIZES = {"matmul": 40, "gamteb": 64, "queens": 6}
PAPER_SIZES = {"matmul": 100, "gamteb": 16, "queens": 6}


@dataclass(frozen=True)
class ProgramKey:
    """One cacheable TAM execution: which program, at what scale."""

    program: str
    size: int
    nodes: int


def resolve_key(program: str, size: Optional[int] = None, nodes: int = 16) -> ProgramKey:
    """Normalise a run request: ``size=None`` means the default scale."""
    if program not in DEFAULT_SIZES:
        raise EvaluationError(
            f"unknown program {program!r}; use 'matmul', 'gamteb', or 'queens'"
        )
    return ProgramKey(program, size if size is not None else DEFAULT_SIZES[program], nodes)


def _execute(key: ProgramKey) -> TamStats:
    """Actually run one program; the only place evaluation executes TAM."""
    if key.program == "matmul":
        from repro.programs.matmul import run_matmul

        return run_matmul(n=key.size, nodes=key.nodes).stats
    if key.program == "gamteb":
        from repro.programs.gamteb import run_gamteb

        return run_gamteb(n_photons=key.size, nodes=key.nodes).stats
    if key.program == "queens":
        from repro.programs.queens import run_queens

        return run_queens(n=key.size, nodes=key.nodes).stats
    raise EvaluationError(f"unknown program {key.program!r}")


class RunCache:
    """The stats of every program run this process has executed or been given."""

    def __init__(self) -> None:
        self._memory: Dict[ProgramKey, TamStats] = {}
        #: Every key this cache actually executed (not served from
        #: memory) — what the at-most-once tests assert on.
        self.execution_log: List[ProgramKey] = []

    def get(self, key: ProgramKey) -> Optional[TamStats]:
        """The cached stats for ``key``, or ``None`` on a miss."""
        return self._memory.get(key)

    def put(self, key: ProgramKey, stats: TamStats) -> None:
        """Seed the cache (a worker receiving a run executed elsewhere)."""
        self._memory[key] = stats

    def ensure(self, key: ProgramKey) -> TamStats:
        """The stats for ``key``, executing the program on a miss."""
        stats = self.get(key)
        if stats is None:
            stats = _execute(key)
            self.execution_log.append(key)
            self.put(key, stats)
        return stats


#: The process-wide cache every harness reads through.
_CACHE = RunCache()


def get_cache() -> RunCache:
    return _CACHE


def set_cache(cache: RunCache) -> RunCache:
    """Swap the process-wide cache (tests); returns it."""
    global _CACHE
    _CACHE = cache
    return cache


def run_program(name: str, size: Optional[int] = None, nodes: int = 16) -> TamStats:
    """Execute one evaluation program (cached) and return its statistics.

    The canonical entry point behind ``repro.eval.run_program``: every
    caller asking for the same ``(program, size, nodes)`` shares one
    execution per process.
    """
    return _CACHE.ensure(resolve_key(name, size, nodes))
