"""Lineage tracking: span state machine, partition invariant, causality.

The acceptance trio lives here: with lineage attached the golden
hot-spot payload is byte-identical to the untraced run, every message's
spans exactly partition ``[inject, deliver]``, and the 64-node NIC
barrier's structural critical path matches the combining tree's closed
form (``2 * depth``).
"""

import pytest

from repro.collectives.engine import run_nic_collective
from repro.collectives.tree import CombiningTree
from repro.errors import ReconciliationError
from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.topology import Mesh2D
from repro.obs.breakdown import critical_path, reconcile_lineage
from repro.obs.lineage import (
    DIVERT_PARK,
    PHASE_DISPATCH,
    PHASE_DIVERT,
    PHASE_EJECT,
    PHASE_HANDLER,
    PHASE_INJECT_WAIT,
    PHASE_LINK,
    PHASE_QUEUE,
    PHASE_SERIALIZE,
    PHASE_VC_BLOCK,
    LineageTracker,
    Span,
)
from tam_reference import MACHINES, each_machine


class FakeMessage:
    def __init__(self, destination=3):
        self.destination = destination
        self.mtype = None


class TestSpanStateMachine:
    """Drive the hooks by hand and inspect the resulting spans."""

    def full_path(self):
        tracker = LineageTracker(origin="unit")
        message = FakeMessage()
        tracker.on_send(10, 0, message, None)
        tracker.on_serialize_start(12, 0, message)
        tracker.on_inject(14, 0, message)
        tracker.on_block(16, 0, message, 1)
        tracker.on_hop(18, 1, message, src=0, vc=0, hops=1)
        tracker.on_deliver(20, message.destination, message)
        tracker.on_dispatch(22, message.destination, message, {"case": 1})
        tracker.on_retire(25, message.destination, message)
        return tracker, tracker.records[0]

    def test_phases_in_order(self):
        _, record = self.full_path()
        assert [span.phase for span in record.spans] == [
            PHASE_INJECT_WAIT,   # [10, 12)
            PHASE_SERIALIZE,     # [12, 15)
            PHASE_QUEUE,         # [15, 16)
            PHASE_VC_BLOCK,      # [16, 17) charged blocked cycle
            PHASE_QUEUE,         # [17, 18)
            PHASE_LINK,          # [18, 19)
            PHASE_QUEUE,         # [19, 20)
            PHASE_EJECT,         # [20, 21)
            PHASE_DISPATCH,      # [21, 22)
            PHASE_HANDLER,       # [22, 25)
        ]

    def test_spans_partition_lifetime(self):
        tracker, record = self.full_path()
        assert record.state == "done"
        assert record.delivered == 21
        assert record.retired == 25
        cursor = record.created
        for span in record.spans:
            assert span.start == cursor
            assert span.end > span.start
            cursor = span.end
        assert cursor == record.retired
        assert reconcile_lineage(tracker) == {
            "checked": 1,
            "complete": 1,
            "incomplete": 0,
        }

    def test_blocked_cycles_become_vc_block(self):
        _, record = self.full_path()
        totals = record.phase_totals()
        assert totals[PHASE_VC_BLOCK] == 1
        # close_wait consumed the blocked list.
        assert record.blocked == []

    def test_same_cycle_dispatch_after_delivery(self):
        # Delivery at ts closes the eject span at ts+1; a dispatch fired
        # with the same clock value must clamp to the cursor, not record
        # a negative span.
        tracker = LineageTracker()
        message = FakeMessage()
        tracker.on_send(0, 0, message, None)
        tracker.on_inject(1, 0, message)
        tracker.on_deliver(5, message.destination, message)
        tracker.on_dispatch(5, message.destination, message, None)
        tracker.on_retire(9, message.destination, message)
        reconcile_lineage(tracker, require_complete=True)
        record = tracker.records[0]
        assert record.phase_totals()[PHASE_HANDLER] == 3  # [6, 9)

    def test_divert_opens_until_redelivery(self):
        tracker = LineageTracker()
        message = FakeMessage()
        tracker.on_send(0, 0, message, None)
        tracker.on_inject(2, 0, message)
        tracker.on_divert(6, message.destination, message, "pin")
        assert tracker.records[0].state == "diverted"
        tracker.on_deliver(30, message.destination, message)  # ordered redelivery
        tracker.on_dispatch(31, message.destination, message, None)
        tracker.on_retire(33, message.destination, message)
        record = tracker.records[0]
        diverts = [s for s in record.spans if s.phase == PHASE_DIVERT]
        assert len(diverts) == 1
        assert diverts[0].end - diverts[0].start == 30 - 7
        assert diverts[0].detail["reason"] == "pin"
        reconcile_lineage(tracker, require_complete=True)

    def test_scheduler_park_is_typed_divert(self):
        tracker = LineageTracker()
        message = FakeMessage()
        tracker.on_send(0, 0, message, None)
        tracker.on_inject(1, 0, message)
        tracker.on_deliver(4, message.destination, message)
        tracker.on_park(10, message.destination, message)  # scheduler parks the queue
        tracker.on_deliver(50, message.destination, message)
        tracker.on_dispatch(51, message.destination, message, None)
        tracker.on_retire(52, message.destination, message)
        record = tracker.records[0]
        parks = [s for s in record.spans if s.phase == PHASE_DIVERT]
        assert len(parks) == 1
        assert parks[0].detail["reason"] == DIVERT_PARK
        reconcile_lineage(tracker, require_complete=True)

    def test_unknown_message_hooks_are_noops(self):
        tracker = LineageTracker()
        stranger = FakeMessage()
        tracker.on_deliver(5, stranger.destination, stranger)
        tracker.on_dispatch(6, stranger.destination, stranger, None)
        tracker.on_retire(7, stranger.destination, stranger)
        assert tracker.records == []

    def test_clear_resets_everything(self):
        tracker, _ = self.full_path()
        tracker.clear()
        assert tracker.records == []
        assert tracker.live == {}
        assert tracker.last_record is None
        message = FakeMessage()
        tracker.on_send(0, 0, message, None)
        assert tracker.records[0].lid == 0  # lid counter restarted


class TestReconciliationRejectsTampering:
    def tracked(self):
        tracker = LineageTracker()
        message = FakeMessage()
        tracker.on_send(0, 0, message, None)
        tracker.on_inject(2, 0, message)
        tracker.on_deliver(6, message.destination, message)
        tracker.on_dispatch(8, message.destination, message, None)
        tracker.on_retire(9, message.destination, message)
        return tracker

    def test_gap_detected(self):
        tracker = self.tracked()
        record = tracker.records[0]
        span = record.spans[1]
        record.spans[1] = Span(span.phase, span.start + 1, span.end, span.detail)
        with pytest.raises(ReconciliationError, match="gap"):
            reconcile_lineage(tracker)

    def test_overlap_detected(self):
        tracker = self.tracked()
        record = tracker.records[0]
        span = record.spans[1]
        record.spans[1] = Span(span.phase, span.start - 1, span.end, span.detail)
        with pytest.raises(ReconciliationError, match="overlap"):
            reconcile_lineage(tracker)

    def test_missing_span_detected(self):
        tracker = self.tracked()
        del tracker.records[0].spans[1]
        with pytest.raises(ReconciliationError):
            reconcile_lineage(tracker)

    def test_in_flight_record_rejected_when_complete_required(self):
        tracker = LineageTracker()
        message = FakeMessage()
        tracker.on_send(0, 0, message, None)
        reconcile_lineage(tracker)  # contiguity alone is fine
        with pytest.raises(ReconciliationError, match="never completed"):
            reconcile_lineage(tracker, require_complete=True)


class TestHotspotAcceptance:
    """The golden hot-spot run under lineage: identical and exact.

    (The untraced payload itself is pinned against the golden dict in
    ``tests/eval/test_flowcontrol_golden.py``; here we pin lineage-on
    against lineage-off, which closes the loop.)
    """

    @pytest.fixture(scope="class")
    def lineage_run(self):
        params = hotspot_params(EvalOptions())
        tracker = LineageTracker(origin="test")
        observed = run_hotspot(params, lineage=tracker)
        untraced = run_hotspot(params)
        return observed, untraced, tracker

    def test_payload_byte_identical_to_lineage_off(self, lineage_run):
        observed, untraced, _ = lineage_run
        assert observed == untraced

    def test_every_message_partitions_inject_to_deliver(self, lineage_run):
        _, untraced, tracker = lineage_run
        summary = reconcile_lineage(tracker, require_complete=True)
        assert summary["checked"] == untraced["delivered"]
        assert summary["incomplete"] == 0
        for record in tracker.records:
            boundaries = {record.created}
            cursor = record.created
            for span in record.spans:
                assert span.start == cursor
                cursor = span.end
                boundaries.add(cursor)
            assert record.delivered in boundaries

    def test_blocked_moves_fully_attributed(self, lineage_run):
        # Every blocked move the fabric charged appears as exactly one
        # vc_block cycle in some message's spans.
        _, untraced, tracker = lineage_run
        vc_cycles = sum(
            span.end - span.start
            for record in tracker.records
            for span in record.spans
            if span.phase == PHASE_VC_BLOCK
        )
        assert vc_cycles == untraced["blocked_moves"]

    def test_records_name_the_hot_node(self, lineage_run):
        # Every message goes to the hot node; the record reads its
        # destination from the interface message's m0, and the eject and
        # dispatch spans name that node.
        _, _, tracker = lineage_run
        hot = hotspot_params(EvalOptions())["hot_node"]
        assert {record.dest for record in tracker.records} == {hot}
        assert {
            span.detail["node"]
            for record in tracker.records
            for span in record.spans
            if span.phase in (PHASE_EJECT, PHASE_DISPATCH)
        } == {hot}


class TestCollectivesCriticalPath:
    def test_barrier_chain_matches_tree_depth(self):
        topology = Mesh2D(8, 8)
        tracker = LineageTracker(origin="barrier")
        run_nic_collective("barrier", topology, observer=tracker)
        reconcile_lineage(tracker, require_complete=True)
        tree = CombiningTree(64, arity=2)
        path = critical_path(tracker)
        # Up-combines then down-broadcast: one message per tree level
        # each way, so the structural chain is exactly 2 * depth.
        assert path["max_chain"] == 2 * tree.depth()
        assert path["length"] >= 1
        assert path["duration"] == sum(path["phases"].values())

    def test_barrier_fan_in_parents(self):
        topology = Mesh2D(4, 4)
        tracker = LineageTracker(origin="barrier")
        run_nic_collective("barrier", topology, arity=4, observer=tracker)
        # Some emission must have combined multiple children.
        assert any(len(record.parents) > 1 for record in tracker.records)


class TestTamLineage:
    def producer_consumer(self, Machine):
        from repro.tam.codeblock import Codeblock
        from repro.tam.instructions import (
            ConInstr,
            ForkInstr,
            IallocInstr,
            IfetchInstr,
            Imm,
            IstoreInstr,
            StopInstr,
        )

        block = Codeblock("pc", frame_size=6)
        block.add_inlet(0, dest_slots=(0,), counter="desc")
        block.add_counter("desc", 1, "first")
        block.add_inlet(1, dest_slots=(1,), counter="value")
        block.add_counter("value", 1, "done")
        block.add_thread(
            "entry", [IallocInstr(Imm(4), reply_inlet=0), StopInstr()]
        )
        block.add_thread(
            "first", [ForkInstr("consume"), ForkInstr("produce"), StopInstr()]
        )
        block.add_thread(
            "produce",
            [ConInstr(2, 77), IstoreInstr(0, Imm(1), value=2), StopInstr()],
        )
        block.add_thread(
            "consume", [IfetchInstr(0, Imm(1), reply_inlet=1), StopInstr()]
        )
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        tracker = LineageTracker(origin="tam")
        machine = Machine(2)
        machine.attach(tracker)
        machine.load(block)
        machine.boot("pc")
        machine.run()
        return tracker

    @each_machine
    def test_request_response_edge(self, Machine):
        tracker = self.producer_consumer(Machine)
        assert tracker.live == {}
        reconcile_lineage(tracker, require_complete=True)
        # The ifetch reply was posted inside the wrapped pread handler,
        # so the request is its causal parent and the chain spans both.
        assert critical_path(tracker)["max_chain"] >= 2
        assert any(record.parents for record in tracker.records)

    def test_backends_record_identical_structure(self):
        shapes = set()
        for Machine in MACHINES.values():
            tracker = self.producer_consumer(Machine)
            shapes.add(
                (
                    len(tracker.records),
                    tuple(
                        tuple(parent.lid for parent in record.parents)
                        for record in tracker.records
                    ),
                )
            )
        assert len(shapes) == 1

    def test_turn_timeline_tagged(self):
        tracker = self.producer_consumer(MACHINES["codegen"])
        assert {record.timeline for record in tracker.records} == {"turns"}
        phases = {
            span.phase for record in tracker.records for span in record.spans
        }
        assert phases <= {PHASE_QUEUE, PHASE_HANDLER}


class TestTenancyLineage:
    def test_policies_reconcile_and_stay_identical(self):
        from repro.tenancy.workload import MultiTenantRun, make_tenants

        tenants = make_tenants(32, 16, 7)
        kwargs = dict(seed=7, gen_window=1500, horizon=2500)
        # Quantum parks residents most often; every park reports the
        # in-registers message to the tracker through on_park.
        for name in ("gang", "round-robin", "quantum"):
            observed = MultiTenantRun(name, tenants, **kwargs)
            tracker = LineageTracker(origin=name)
            observed.fabric.attach(tracker)
            plain = MultiTenantRun(name, tenants, **kwargs)
            observed.run()
            plain.run()
            assert observed.payload() == plain.payload()
            summary = reconcile_lineage(tracker)
            assert summary["checked"] > 0


class TestParking:
    """Both schedulers park through ``NetworkInterface.park``, which
    reports the message in the input registers too."""

    def test_gang_park_from_registers_is_a_divert_span(self):
        from repro.network.fabric import Fabric
        from repro.nic.messages import pack_destination
        from repro.nic.protection import GangScheduler

        tracker = LineageTracker(origin="park")
        fabric = Fabric(Mesh2D(2, 1))
        fabric.attach(tracker)
        sender, receiver = fabric.interfaces
        gang = GangScheduler(fabric.interfaces)
        gang.start_slice(1)
        sender.write_output(0, pack_destination(1))
        sender.send(2)
        fabric.run_until_quiescent()
        assert receiver.msg_valid  # dispatched into the registers
        for _ in range(5):  # the handler runs a while before the switch
            fabric.step()
        gang.end_slice()
        parked_at = fabric.stats.cycles
        for _ in range(25):
            fabric.step()
        gang.start_slice(1)
        receiver.next()
        reconcile_lineage(tracker, require_complete=True)
        (record,) = tracker.records
        parks = [s for s in record.spans if s.phase == PHASE_DIVERT]
        assert [(s.start, s.end, s.detail["reason"]) for s in parks] == [
            (parked_at, parked_at + 25, DIVERT_PARK)
        ]

    def test_gang_tenancy_books_parked_time_as_divert(self):
        from repro.tenancy.workload import MultiTenantRun, make_tenants

        tenants = make_tenants(32, 16, 7)
        kwargs = dict(seed=7, gen_window=1500, horizon=2500)
        observed = MultiTenantRun("gang", tenants, **kwargs)
        tracker = LineageTracker(origin="gang")
        observed.fabric.attach(tracker)
        plain = MultiTenantRun("gang", tenants, **kwargs)
        observed.run()
        plain.run()
        assert observed.payload() == plain.payload()
        handler = sum(
            span.end - span.start
            for record in tracker.records
            for span in record.spans
            if span.phase == PHASE_HANDLER
        )
        # 147 of the 2,151 cycles once booked here were parked time.
        assert handler == 2004
