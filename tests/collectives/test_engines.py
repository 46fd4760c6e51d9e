"""NIC-offloaded vs processor-driven collectives: identity and offload.

The acceptance bar of this extension: at 16, 64, and 256 nodes the
NIC-handler-driven barrier / broadcast / reduce / allreduce produce
results identical to the processor-driven baselines, and the
handler-driven variants charge the processor strictly fewer cycles.
"""

import pytest

from repro.collectives.baseline import run_proc_collective
from repro.collectives.costs import price_run
from repro.collectives.engine import run_nic_collective
from repro.collectives.programs import COLLECTIVES, HandlerContext, expected_result
from repro.collectives.tree import CombiningTree
from repro.errors import CollectiveError
from repro.impls.base import ALL_MODELS, OPTIMIZED_REGISTER
from repro.network.topology import Mesh2D, Torus2D

SIZES = {16: Mesh2D(4, 4), 64: Mesh2D(8, 8), 256: Mesh2D(16, 16)}


@pytest.mark.parametrize("n_nodes", sorted(SIZES))
@pytest.mark.parametrize("kind", COLLECTIVES)
class TestResultIdentity:
    def test_nic_matches_proc_and_closed_form(self, kind, n_nodes):
        topology = SIZES[n_nodes]
        values = list(range(n_nodes))
        nic = run_nic_collective(kind, topology, values=values)
        proc = run_proc_collective(kind, topology, values=values)
        expected = expected_result(kind, "sum", CombiningTree(n_nodes), values)
        assert nic.results == proc.results == expected
        assert nic.events == proc.events

    def test_nic_charges_the_processor_strictly_less(self, kind, n_nodes):
        topology = SIZES[n_nodes]
        nic = run_nic_collective(kind, topology)
        proc = run_proc_collective(kind, topology)
        for model in ALL_MODELS:
            nic_price = price_run(nic, model)
            proc_price = price_run(proc, model)
            assert nic_price.proc_cycles < proc_price.proc_cycles
            assert nic_price.overlap > 0
            assert proc_price.overlap == 0
            assert nic_price.total_cycles == proc_price.total_cycles


class TestOperationsAndShapes:
    @pytest.mark.parametrize("op", ["sum", "max", "min", "bor"])
    def test_all_ops_agree_across_variants(self, op):
        topology = Mesh2D(4, 4)
        values = [(v * 37) % 101 for v in range(16)]
        nic = run_nic_collective("allreduce", topology, op=op, values=values)
        proc = run_proc_collective("allreduce", topology, op=op, values=values)
        expected = expected_result(
            "allreduce", op, CombiningTree(16), values
        )
        assert nic.results == proc.results == expected

    def test_flat_star_tree(self):
        nic = run_nic_collective("reduce", Mesh2D(4, 4), arity=15)
        proc = run_proc_collective("reduce", Mesh2D(4, 4), arity=15)
        assert nic.results == proc.results
        assert nic.results[0] == sum(range(16))
        # Every combine happens at the root in the star.
        assert nic.events["combines"] == 15

    def test_rotated_root(self):
        nic = run_nic_collective("allreduce", Mesh2D(4, 4), root=9)
        proc = run_proc_collective("allreduce", Mesh2D(4, 4), root=9)
        expected = expected_result(
            "allreduce", "sum", CombiningTree(16, root=9), list(range(16))
        )
        assert nic.results == proc.results == expected

    def test_torus_topology(self):
        nic = run_nic_collective("barrier", Torus2D(4, 4))
        proc = run_proc_collective("barrier", Torus2D(4, 4))
        assert nic.results == proc.results
        assert set(nic.results.values()) == {16}

    @pytest.mark.parametrize("payload", [(200, 201), [7], ()])
    def test_sequence_broadcast_payload_rejected(self, payload):
        # A broadcast carries one word (m2); a sequence is refused by
        # both engines and by the closed form.
        values = [payload] + [0] * 15
        for run in (run_nic_collective, run_proc_collective):
            with pytest.raises(CollectiveError, match="one word"):
                run("broadcast", Mesh2D(4, 4), values=values)
        with pytest.raises(CollectiveError, match="one word"):
            expected_result("broadcast", "sum", CombiningTree(16), values)


class TestDispatchFidelity:
    def test_uncongested_runs_ride_msg_ip_case_2(self):
        nic = run_nic_collective("allreduce", Mesh2D(4, 4))
        assert nic.dispatch.case2 == nic.events["handled"]
        assert nic.dispatch.boundary == 0

    def test_congestion_selects_boundary_table_slots(self):
        nic = run_nic_collective(
            "barrier",
            Mesh2D(4, 4),
            arity=15,
            iq_threshold=0,
            step_cycles=3,
        )
        assert nic.dispatch.boundary > 0
        assert all(iafull for iafull, _ in nic.dispatch.slots)
        # Boundary dispatch slows dispatch down but never changes results.
        assert nic.results == expected_result(
            "barrier", "sum", CombiningTree(16, arity=15), [0] * 16
        )

    def test_all_collective_traffic_is_type_0(self):
        from repro.obs.observer import Observer

        class Ejections(Observer):
            def __init__(self):
                self.types = []

            def on_eject(self, ts, node, message, hops, latency):
                self.types.append(message.mtype)

        ejections = Ejections()
        nic = run_nic_collective("allreduce", Mesh2D(4, 4), observer=ejections)
        # Everything the collective moved was a type-0 (MsgIp) message.
        assert nic.fabric_delivered > 0
        assert ejections.types == [0] * nic.fabric_delivered


class TestProtocolErrors:
    def test_unknown_kind_and_op_rejected(self):
        with pytest.raises(CollectiveError):
            HandlerContext(0, CombiningTree(4), "gossip")
        with pytest.raises(CollectiveError):
            HandlerContext(0, CombiningTree(4), "reduce", op="xor2")

    def test_double_completion_rejected(self):
        ctx = HandlerContext(0, CombiningTree(1), "barrier")
        ctx.complete(1)
        with pytest.raises(CollectiveError):
            ctx.complete(2)

    def test_overparticipation_rejected(self):
        from repro.collectives.programs import enter

        ctx = HandlerContext(0, CombiningTree(1), "barrier")
        enter(ctx)
        with pytest.raises(CollectiveError):
            enter(ctx)


class TestPricing:
    def test_priced_costs_scale_with_events(self):
        small = run_nic_collective("barrier", Mesh2D(4, 4))
        large = run_nic_collective("barrier", Mesh2D(8, 8))
        p_small = price_run(small, OPTIMIZED_REGISTER)
        p_large = price_run(large, OPTIMIZED_REGISTER)
        assert p_large.nic_cycles > p_small.nic_cycles
        assert p_large.proc_cycles == 4 * p_small.proc_cycles  # n-proportional

    def test_basic_architecture_prices_higher(self):
        run = run_nic_collective("allreduce", Mesh2D(4, 4))
        by_key = {m.key: price_run(run, m) for m in ALL_MODELS}
        assert (
            by_key["basic-register"].nic_cycles
            > by_key["optimized-register"].nic_cycles
        )
