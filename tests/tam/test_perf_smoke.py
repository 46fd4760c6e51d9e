"""Perf-regression smoke tests for the default (codegen) TAM backend.

The Figure 12 harness is only usable at paper scale because the codegen
backend keeps the interpreter quick; a large regression would quietly
make ``python -m repro --paper-scale`` impractical.  The budgets here
are deliberately generous multiples of the measured times (see
``BENCH_runtime.json``) so the tests stay green under CI noise but fail
on an order-of-magnitude slip — e.g. losing compile-at-load code
generation or reintroducing the scan-all-nodes scheduler.
"""

import time

import pytest

from repro.programs.matmul import run_matmul

# The seed interpreter took ~0.95 s; the default backend is far faster
# (BENCH_runtime.json).  Budget sits far above the latter and
# meaningfully below the former.
MATMUL_BUDGET_SECONDS = 2.5


def test_matmul_fast_path_within_budget():
    start = time.perf_counter()
    result = run_matmul(n=40, nodes=16)
    elapsed = time.perf_counter() - start
    assert result.machine.turns_executed > 0
    assert elapsed < MATMUL_BUDGET_SECONDS, (
        f"matmul 40x40 took {elapsed:.2f}s (budget "
        f"{MATMUL_BUDGET_SECONDS}s) — the default TAM backend has regressed"
    )


@pytest.mark.slow
def test_matmul_paper_scale_within_budget():
    """The paper's 100x100 configuration stays practical (opt-in: -m slow)."""
    start = time.perf_counter()
    result = run_matmul(n=100, nodes=16)
    elapsed = time.perf_counter() - start
    assert result.machine.turns_executed > 0
    assert elapsed < 30.0, (
        f"matmul 100x100 took {elapsed:.2f}s; paper-scale evaluation "
        "is no longer practical"
    )
