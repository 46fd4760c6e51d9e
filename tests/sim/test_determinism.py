"""Determinism pins for every kernel-driven workload (ISSUE 4).

Two kinds of guarantee:

* **Repeatability** — the same workload run twice produces byte-identical
  payloads, cycle counts, and trace event streams.  The kernel has no
  hidden state (no wall clock, no hashing order, no RNG), so any
  divergence here is a scheduling bug.
* **Policy equivalence** — the TAM reference and codegen backends are
  two policies over the same sweep contract; their observable event
  streams must match turn for turn, not just in aggregate.
"""

from repro.api.cluster import Cluster
from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.topology import Mesh2D
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import TAM_HANDLE, TAM_POST, Tracer
from repro.programs.matmul import run_matmul
from repro.programs.queens import run_queens


def small_hotspot():
    params = hotspot_params(EvalOptions())
    params["messages_per_sender"] = 6
    return params


def drive_cluster(tracer):
    """A mixed read/write workload with cross-fabric traffic."""
    cluster = Cluster(Mesh2D(3, 3), tracer=tracer)
    cluster.remote_block_write(source=0, target=8, address=0x100, values=range(12))
    values = cluster.remote_block_read(source=4, target=8, address=0x100, count=12)
    assert values == list(range(12))
    return cluster


class TestRepeatability:
    def test_hotspot_twice_is_identical(self):
        runs = []
        for _ in range(2):
            tracer = Tracer(capacity=None)
            payload = run_hotspot(
                small_hotspot(), tracer=tracer, metrics=MetricsRecorder()
            )
            runs.append((payload, list(tracer)))
        (payload_a, events_a), (payload_b, events_b) = runs
        assert payload_a == payload_b
        assert events_a == events_b

    def test_cluster_twice_is_identical(self):
        runs = []
        for _ in range(2):
            tracer = Tracer(capacity=None)
            cluster = drive_cluster(tracer)
            runs.append(
                (
                    cluster.fabric.stats.cycles,
                    cluster.total_messages_handled(),
                    list(tracer),
                )
            )
        assert runs[0] == runs[1]


class TestPolicyEquivalence:
    """Reference and codegen TAM backends: same events, same order."""

    def tam_stream(self, tracer):
        return [
            event
            for event in tracer
            if event.kind in (TAM_POST, TAM_HANDLE)
        ]

    def test_matmul_turn_for_turn(self):
        codegen, ref = Tracer(capacity=None), Tracer(capacity=None)
        a = run_matmul(n=8, nodes=4, tracer=codegen)
        b = run_matmul(n=8, nodes=4, backend="reference", tracer=ref)
        assert a.total == b.total
        assert a.machine.turns_executed == b.machine.turns_executed
        assert self.tam_stream(codegen) == self.tam_stream(ref)

    def test_queens_turn_for_turn(self):
        codegen, ref = Tracer(capacity=None), Tracer(capacity=None)
        a = run_queens(n=5, nodes=4, tracer=codegen)
        b = run_queens(n=5, nodes=4, backend="reference", tracer=ref)
        assert a.solutions == b.solutions
        assert a.machine.turns_executed == b.machine.turns_executed
        assert self.tam_stream(codegen) == self.tam_stream(ref)
