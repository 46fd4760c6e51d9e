"""The backend equivalence matrix: codegen = reference, bit for bit.

The codegen backend (:mod:`repro.tam.codegen`) and its schedulers are
pure performance work — every observable quantity must be identical to
the reference interpreter's.  That is a strong property: the
message-outcome mix (full/empty/deferred presence-bit reads) depends on
the exact interleaving of threads and messages, so these tests fail if
codegen services even one node out of order.

Every paper program runs on both backends at one and at five nodes and
is compared turn-for-turn on the full statistics object, the
program-level results (matmul C values, gamteb tallies, queens count),
and the activation frames themselves (through ``frame_view``, so the
flat codegen frame is compared slot by slot against the reference
``Frame``).

Also here: repeat-run determinism for the codegen machine (the
generated-code + scheduler pipeline has no hidden iteration-order
dependence) and error parity (a malformed program or a bad host query
fails with the same exception and message on both backends).
"""

import pytest

from repro.errors import FrameError, TamError
from repro.programs.gamteb import run_gamteb
from repro.programs.matmul import run_matmul
from repro.programs.queens import run_queens
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import ConInstr, SelfInstr, SendInstr, StopInstr
from repro.tam.runtime import TamMachine
from repro.tam.stats import TamStats

BACKENDS = TamMachine.BACKENDS
NODES = (1, 5)


def stats_as_dict(stats: TamStats) -> dict:
    """Every field of TamStats, flattened for exact comparison."""
    return {
        "instructions": {
            kind.name: count for kind, count in stats.instructions.items()
        },
        "messages": stats.messages.as_dict(),
        "threads_run": stats.threads_run,
        "frames_allocated": stats.frames_allocated,
        "istructures_allocated": stats.istructures_allocated,
    }

PROGRAMS = {
    "matmul": lambda backend, nodes: run_matmul(
        n=8, nodes=nodes, backend=backend
    ),
    "gamteb": lambda backend, nodes: run_gamteb(
        n_photons=8, nodes=nodes, backend=backend
    ),
    "queens": lambda backend, nodes: run_queens(
        n=5, nodes=nodes, backend=backend
    ),
}


def result_fingerprint(name, result):
    if name == "matmul":
        return result.total
    if name == "gamteb":
        return (result.absorbed, result.escaped, result.photons_traced)
    return result.solutions


@pytest.fixture(scope="module")
def matrix():
    """Every program on every backend and node count, run once."""
    return {
        (name, nodes): {backend: runner(backend, nodes) for backend in BACKENDS}
        for name, runner in PROGRAMS.items()
        for nodes in NODES
    }


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("nodes", NODES)
def test_stats_match_reference(matrix, program, nodes):
    runs = matrix[program, nodes]
    reference, codegen = runs["reference"], runs["codegen"]
    assert stats_as_dict(codegen.stats) == stats_as_dict(reference.stats)
    assert codegen.machine.turns_executed == reference.machine.turns_executed


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("nodes", NODES)
def test_results_match_reference(matrix, program, nodes):
    runs = matrix[program, nodes]
    assert result_fingerprint(program, runs["codegen"]) == (
        result_fingerprint(program, runs["reference"])
    )


def test_istructure_outcome_mix_is_order_sensitive_and_matches():
    """The subtlest equivalence: presence-bit outcomes match exactly.

    A pread that arrives before the pwrite is counted empty/deferred; one
    that arrives after is counted full.  Identical counts across
    backends therefore certify identical scheduling order, not just
    identical totals.
    """
    codegen = run_matmul(n=12, nodes=7)
    reference = run_matmul(n=12, nodes=7, backend="reference")
    c, r = codegen.stats.messages, reference.stats.messages
    assert (c.preads_full, c.preads_empty, c.preads_deferred) == (
        r.preads_full,
        r.preads_empty,
        r.preads_deferred,
    )
    assert (c.pwrites_empty, c.pwrites_deferred) == (
        r.pwrites_empty,
        r.pwrites_deferred,
    )
    # Both orderings genuinely occur at this scale, so the equality above
    # is discriminating.
    assert c.preads_full > 0
    assert c.preads_empty + c.preads_deferred > 0


def test_frame_views_match_across_backends():
    """The driver activation is slot-identical on both backends.

    ``frame_view`` exposes the codegen backend's flat frame through the
    same ``slots`` surface as the reference ``Frame``, so the final
    frame contents — results, loop indices, counters — compare
    directly.
    """
    from repro.programs.queens import build_driver, build_worker

    frames = {}
    for backend in BACKENDS:
        machine = TamMachine(5, backend=backend)
        machine.load(build_worker(5))
        machine.load(build_driver())
        ref = machine.boot("queens_driver")
        machine.run()
        frames[backend] = machine.frame_view(ref)
    reference, view = frames["reference"], frames["codegen"]
    assert list(view.slots) == list(reference.slots)
    for counter in ("kid_ready", "root_done"):
        assert view.counter_value(counter) == reference.counter_value(counter)


def test_codegen_repeat_runs_are_deterministic():
    """Same program, same machine parameters, identical run every time."""
    baseline = run_matmul(n=8, nodes=5, backend="codegen")
    for _ in range(3):
        repeat = run_matmul(n=8, nodes=5, backend="codegen")
        assert stats_as_dict(repeat.stats) == stats_as_dict(baseline.stats)
        assert (
            repeat.machine.turns_executed
            == baseline.machine.turns_executed
        )
        assert repeat.total == baseline.total


def _missing_inlet_program():
    """A codeblock whose entry sends to an inlet that does not exist."""
    block = Codeblock("bad_send", frame_size=2)
    block.add_thread(
        "entry",
        [
            SelfInstr(0),
            SendInstr(frame_slot=0, inlet=9, values=()),
            StopInstr(),
        ],
    )
    block.set_entry("entry")
    return block


@pytest.mark.parametrize("backend", BACKENDS)
def test_missing_inlet_error_parity(backend):
    machine = TamMachine(2, backend=backend)
    machine.load(_missing_inlet_program())
    machine.boot("bad_send")
    with pytest.raises(TamError, match=r"'bad_send' has no inlet 9"):
        machine.run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_counter_error_parity(backend):
    """``frame_view`` raises the RESET error for an undeclared counter."""
    block = Codeblock("counted", frame_size=1)
    block.add_thread("entry", [ConInstr(0, 1), StopInstr()])
    block.add_thread("done", [StopInstr()])
    block.add_counter("k", 2, "done")
    block.set_entry("entry")
    machine = TamMachine(1, backend=backend)
    machine.load(block)
    ref = machine.boot("counted")
    machine.run()
    view = machine.frame_view(ref)
    assert view.counter_value("k") == 2
    with pytest.raises(FrameError) as raised:
        view.counter_value("nope")
    assert str(raised.value) == f"counted{ref}: no counter 'nope'"


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_codeblock_error_parity(backend):
    machine = TamMachine(2, backend=backend)
    with pytest.raises(TamError, match=r"unknown codeblock"):
        machine.boot("nope")


def test_unknown_backend_lists_both_names():
    with pytest.raises(TamError, match=r"choose from reference, codegen\)$"):
        TamMachine(1, backend="fast")
