"""Run-cache behaviour: keys, hits and misses, at-most-once."""

import pickle

import pytest

from repro.errors import EvaluationError
from repro.exp import runcache
from repro.exp.runcache import DEFAULT_SIZES, ProgramKey, RunCache, resolve_key

FAST_KEY = ProgramKey("queens", 4, 4)


class TestResolveKey:
    def test_none_size_uses_default_scale(self):
        assert resolve_key("matmul") == ProgramKey(
            "matmul", DEFAULT_SIZES["matmul"], 16
        )
        assert resolve_key("gamteb", None, 8) == ProgramKey(
            "gamteb", DEFAULT_SIZES["gamteb"], 8
        )

    def test_explicit_size_survives(self):
        assert resolve_key("matmul", 24) == ProgramKey("matmul", 24, 16)

    def test_explicit_default_size_aliases_none(self):
        """figure12's implicit default and an explicit 40 share one run."""
        assert resolve_key("matmul", DEFAULT_SIZES["matmul"]) == resolve_key("matmul")

    def test_unknown_program_rejected(self):
        with pytest.raises(EvaluationError, match="unknown program"):
            resolve_key("sorting")


class TestMemoryLayer:
    def test_miss_executes_then_hits(self):
        cache = RunCache()
        stats = cache.ensure(FAST_KEY)
        assert cache.execution_log == [FAST_KEY]
        assert cache.ensure(FAST_KEY) is stats
        assert cache.execution_log == [FAST_KEY]  # second call was a hit

    def test_distinct_keys_execute_separately(self):
        cache = RunCache()
        cache.ensure(FAST_KEY)
        other = ProgramKey("queens", 4, 2)
        cache.ensure(other)
        assert cache.execution_log == [FAST_KEY, other]


class TestDiskLayer:
    """What a ``--jobs`` fan-out relies on: stats cross processes by pickle."""

    def test_stats_round_trip_pickle(self):
        """TamStats must cross process boundaries whole."""
        cache = RunCache()
        stats = cache.ensure(FAST_KEY)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.as_dict() == stats.as_dict()


class TestGlobalCache:
    def test_run_program_uses_the_process_cache(self, monkeypatch):
        fresh = RunCache()
        monkeypatch.setattr(runcache, "_CACHE", fresh)
        runcache.run_program("queens", 4, 4)
        runcache.run_program("queens", 4, 4)
        assert fresh.execution_log == [FAST_KEY]

    def test_set_cache_swaps(self):
        before = runcache.get_cache()
        fresh = RunCache()
        try:
            assert runcache.set_cache(fresh) is fresh
            assert runcache.get_cache() is fresh
        finally:
            runcache.set_cache(before)
