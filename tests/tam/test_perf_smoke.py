"""Perf-regression smoke tests for the TAM machine.

The Figure 12 harness is only usable at paper scale because generated
code keeps the machine quick; a large regression would quietly make
``python -m repro --paper-scale`` impractical.  The tier-1 check
compares the machine with the reference interpreter on the same run in
the same process, so host speed cancels out: it fails on losing
compile-at-load code generation or reintroducing the scan-all-nodes
scheduler, and stays green under CI noise.
"""

import time

import pytest

from repro.programs.matmul import run_matmul
from repro.tam.runtime import TamMachine
from tam_reference import ReferenceMachine, on_machine

# On a 2-vCPU host, matmul 40x40 on 16 nodes took 0.08-0.21 s on the
# machine (the slowest with its code-generation cache cold) and
# 1.10-1.41 s on the reference interpreter: 6.2-14.6x faster over six
# same-process pairs.  The floor sits well below that and well above 1x.
MIN_SPEEDUP_OVER_REFERENCE = 3.0

# Interleaved pairs, compared by each side's fastest run: one run per
# side once read 2.8x on a busy host, and the first default run also
# pays for a cold code-generation cache.
PAIRS = 3


def _timed_matmul(patch, Machine):
    run = on_machine(patch, Machine, run_matmul)
    start = time.perf_counter()
    result = run(n=40, nodes=16)
    return time.perf_counter() - start, result.machine.turns_executed


def test_matmul_fast_path_within_budget(monkeypatch):
    defaults, references = [], []
    for _ in range(PAIRS):
        default, turns = _timed_matmul(monkeypatch, TamMachine)
        reference, reference_turns = _timed_matmul(monkeypatch, ReferenceMachine)
        assert turns == reference_turns > 0
        defaults.append(default)
        references.append(reference)
    default, reference = min(defaults), min(references)
    assert reference / default >= MIN_SPEEDUP_OVER_REFERENCE, (
        f"matmul 40x40 took {default:.2f}s on the TAM machine and "
        f"{reference:.2f}s on the reference interpreter (fastest of "
        f"{PAIRS} each): {reference / default:.1f}x, below the "
        f"{MIN_SPEEDUP_OVER_REFERENCE}x floor — the machine has "
        "regressed"
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
