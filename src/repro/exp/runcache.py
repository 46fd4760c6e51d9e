"""Content-addressed caching of TAM program executions.

Every evaluation study prices the same handful of program runs — the
Figure 12 bars, the latency sweep, and the ablation all start from one
``matmul`` execution.  The cache keys each run on
``(program, size, nodes)`` plus a digest of the interpreter and program
sources, so:

* within one ``python -m repro`` invocation each parameter set executes
  at most once (the in-process layer);
* worker processes of a ``--jobs N`` fan-out share executions through
  the on-disk layer (pickled :class:`~repro.tam.stats.TamStats`);
* a stale cache can never survive a code change — the ``code_digest``
  component of the key rolls over with the sources.

The disk layer is off unless a directory is configured (CLI
``--cache-dir``, the ``REPRO_RUNCACHE_DIR`` environment variable, or
:func:`set_cache`); the in-process layer is always on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import EvaluationError
from repro.tam.stats import TamStats

DEFAULT_SIZES = {"matmul": 40, "gamteb": 64, "queens": 6}
PAPER_SIZES = {"matmul": 100, "gamteb": 16, "queens": 6}

#: Packages whose sources determine what a program execution produces.
_DIGEST_PACKAGES = ("tam", "programs", "node")


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


_CODE_DIGEST: Optional[str] = None


def code_digest() -> str:
    """SHA-256 over the interpreter and program sources, memoised.

    Cached stats are only as trustworthy as the code that produced them;
    folding this digest into every disk-cache filename makes any edit to
    the TAM runtime, the node model, or a program an automatic cache
    invalidation.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for package in _DIGEST_PACKAGES:
            for path in sorted((root / package).glob("*.py")):
                hasher.update(path.name.encode())
                hasher.update(path.read_bytes())
        _CODE_DIGEST = hasher.hexdigest()
    return _CODE_DIGEST


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
    """In-process dict over an optional on-disk pickle store."""

    def __init__(self, disk_dir: Optional[os.PathLike] = None) -> None:
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self._memory: Dict[ProgramKey, TamStats] = {}
        #: Every key this cache actually executed (not served from a
        #: layer) — what the at-most-once tests assert on.
        self.execution_log: List[ProgramKey] = []

    def _disk_path(self, key: ProgramKey) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        name = (
            f"{key.program}-n{key.size}-p{key.nodes}-{code_digest()[:16]}.pkl"
        )
        return self.disk_dir / name

    def get(self, key: ProgramKey) -> Optional[TamStats]:
        """The cached stats for ``key``, or ``None`` on a full miss."""
        stats = self._memory.get(key)
        if stats is not None:
            return stats
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                stats = pickle.loads(path.read_bytes())
            except Exception:  # corrupt entry: treat as a miss
                return None
            self._memory[key] = stats
            return stats
        return None

    def put(self, key: ProgramKey, stats: TamStats) -> None:
        """Seed both layers (used by the parallel runner's fan-in)."""
        self._memory[key] = stats
        path = self._disk_path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(pickle.dumps(stats))
            os.replace(tmp, path)

    def ensure(self, key: ProgramKey) -> TamStats:
        """The stats for ``key``, executing the program on a miss."""
        stats = self.get(key)
        if stats is None:
            stats = _execute(key)
            self.execution_log.append(key)
            self.put(key, stats)
        return stats


#: The process-wide cache every harness reads through.
_CACHE = RunCache(disk_dir=os.environ.get("REPRO_RUNCACHE_DIR") or None)


def get_cache() -> RunCache:
    return _CACHE


def set_cache(cache: RunCache) -> RunCache:
    """Swap the process-wide cache (tests, worker processes); returns it."""
    global _CACHE
    _CACHE = cache
    return cache


def run_program(name: str, size: Optional[int] = None, nodes: int = 16) -> TamStats:
    """Execute one evaluation program (cached) and return its statistics.

    The canonical entry point behind ``repro.eval.run_program``: every
    caller asking for the same ``(program, size, nodes)`` shares one
    execution per process (and per disk cache, when configured).
    """
    return _CACHE.ensure(resolve_key(name, size, nodes))
