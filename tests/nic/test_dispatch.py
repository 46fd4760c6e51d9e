"""Tests for the MsgIp / NextMsgIp hardware dispatch (paper Figure 7)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nic.control import CONTROL_LAYOUT
from repro.nic.dispatch import (
    HANDLER_ID_EXCEPTION,
    HANDLER_ID_NO_MESSAGE,
    HANDLER_REGION_BYTES,
    HANDLER_SLOT_BYTES,
    TABLE_BYTES,
    DispatchConditions,
    compute_msg_ip,
    decode_table_address,
    describe_dispatch,
    handler_table_address,
)
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message

IP_BASE = 0x0004_0000


def msg(mtype: int, word1: int = 0xDEAD_BEE0) -> Message:
    return Message(mtype, (0, word1, 0, 0, 0))


class TestHandlerTableAddress:
    def test_base_bits_preserved(self):
        addr = handler_table_address(IP_BASE, 5)
        assert addr & ~(TABLE_BYTES - 1) == IP_BASE

    def test_handler_id_encoded(self):
        addr = handler_table_address(IP_BASE, 7)
        handler_id, iafull, oafull = decode_table_address(addr)
        assert handler_id == 7
        assert not iafull and not oafull

    def test_condition_bits_encoded(self):
        addr = handler_table_address(IP_BASE, 3, iafull=True, oafull=True)
        assert decode_table_address(addr) == (3, True, True)

    def test_versions_are_slot_spaced(self):
        plain = handler_table_address(IP_BASE, 3)
        ia = handler_table_address(IP_BASE, 3, iafull=True)
        oa = handler_table_address(IP_BASE, 3, oafull=True)
        assert ia - plain == HANDLER_SLOT_BYTES
        assert oa - plain == 2 * HANDLER_SLOT_BYTES

    def test_types_are_region_spaced(self):
        assert (
            handler_table_address(IP_BASE, 4) - handler_table_address(IP_BASE, 3)
            == HANDLER_REGION_BYTES
        )

    def test_handler_id_range(self):
        with pytest.raises(ValueError):
            handler_table_address(IP_BASE, 16)

    def test_dirty_base_low_bits_replaced(self):
        addr = handler_table_address(IP_BASE | 0x3FF, 0)
        assert decode_table_address(addr) == (0, False, False)

    @given(
        handler=st.integers(min_value=0, max_value=15),
        iafull=st.booleans(),
        oafull=st.booleans(),
    )
    def test_decode_roundtrip(self, handler, iafull, oafull):
        addr = handler_table_address(IP_BASE, handler, iafull, oafull)
        assert decode_table_address(addr) == (handler, iafull, oafull)


class TestComputeMsgIp:
    def test_case1_typical(self):
        # Ordinary typed message, no conditions: table lookup on the type.
        ip = compute_msg_ip(IP_BASE, msg(5), DispatchConditions())
        assert decode_table_address(ip) == (5, False, False)

    def test_case2_type0_uses_word1(self):
        # Figure 7 case 2: type 0, no boundary conditions.
        ip = compute_msg_ip(IP_BASE, msg(0, word1=0x1234_5678), DispatchConditions())
        assert ip == 0x1234_5678

    def test_type0_with_iafull_falls_back_to_table(self):
        conditions = DispatchConditions(iafull=True)
        ip = compute_msg_ip(IP_BASE, msg(0), conditions)
        assert decode_table_address(ip) == (0, True, False)

    def test_type0_with_oafull_falls_back_to_table(self):
        conditions = DispatchConditions(oafull=True)
        ip = compute_msg_ip(IP_BASE, msg(0), conditions)
        assert decode_table_address(ip) == (0, False, True)

    def test_no_message_gives_idle_handler(self):
        ip = compute_msg_ip(IP_BASE, None, DispatchConditions())
        assert decode_table_address(ip)[0] == HANDLER_ID_NO_MESSAGE

    def test_exception_wins_over_message(self):
        conditions = DispatchConditions(exception=True)
        ip = compute_msg_ip(IP_BASE, msg(5), conditions)
        assert decode_table_address(ip)[0] == HANDLER_ID_EXCEPTION

    def test_exception_wins_over_type0(self):
        conditions = DispatchConditions(exception=True)
        ip = compute_msg_ip(IP_BASE, msg(0), conditions)
        assert decode_table_address(ip)[0] == HANDLER_ID_EXCEPTION

    def test_exception_wins_over_no_message(self):
        conditions = DispatchConditions(exception=True)
        ip = compute_msg_ip(IP_BASE, None, conditions)
        assert decode_table_address(ip)[0] == HANDLER_ID_EXCEPTION

    def test_conditions_visible_in_typed_dispatch(self):
        conditions = DispatchConditions(iafull=True, oafull=True)
        ip = compute_msg_ip(IP_BASE, msg(9), conditions)
        assert decode_table_address(ip) == (9, True, True)

    @given(
        mtype=st.integers(min_value=2, max_value=15),
        iafull=st.booleans(),
        oafull=st.booleans(),
    )
    def test_typed_messages_always_table_dispatch(self, mtype, iafull, oafull):
        conditions = DispatchConditions(iafull=iafull, oafull=oafull)
        ip = compute_msg_ip(IP_BASE, msg(mtype), conditions)
        assert decode_table_address(ip) == (mtype, iafull, oafull)


class TestDispatchUnit:
    """The Figure 7 logic as the interface runs it, over its own IpBase."""

    def test_ip_base_property(self):
        ni = NetworkInterface()
        ni.write_register("IpBase", IP_BASE)
        assert ni.ip_base == ni.read_register("IpBase") == IP_BASE

    def test_msg_ip_and_next_msg_ip_independent(self):
        ni = NetworkInterface()
        ni.ip_base = IP_BASE
        ni.deliver(msg(5))
        ni.deliver(msg(6))
        assert decode_table_address(ni.msg_ip)[0] == 5
        assert decode_table_address(ni.next_msg_ip)[0] == 6

    def test_idle_and_exception_ips(self):
        ni = NetworkInterface()
        ni.ip_base = IP_BASE
        assert ni.msg_ip == handler_table_address(IP_BASE, HANDLER_ID_NO_MESSAGE)
        ni.status.raise_exception("exc_input_error")
        assert ni.msg_ip == handler_table_address(IP_BASE, HANDLER_ID_EXCEPTION)

    def test_ip_base_truncated_to_word(self):
        ni = NetworkInterface()
        ni.write_register("IpBase", 1 << 36)
        assert ni.read_register("IpBase") == 0


class TestDispatchUnitBoundaryVersions:
    """Section 2.2.4's four handler versions, selected by the Figure 7 logic."""

    SLOTS = (
        (False, False, 0),
        (True, False, HANDLER_SLOT_BYTES),
        (False, True, 2 * HANDLER_SLOT_BYTES),
        (True, True, 3 * HANDLER_SLOT_BYTES),
    )

    def test_all_four_version_slots_selected(self):
        # Every iafull x oafull combination lands in its own slot, at the
        # architected offset from the unconditioned entry.
        base_ip = compute_msg_ip(IP_BASE, msg(5), DispatchConditions())
        for iafull, oafull, offset in self.SLOTS:
            conditions = DispatchConditions(iafull=iafull, oafull=oafull)
            ip = compute_msg_ip(IP_BASE, msg(5), conditions)
            assert decode_table_address(ip) == (5, iafull, oafull)
            assert ip - base_ip == offset

    def test_version_slots_never_collide(self):
        ips = {
            compute_msg_ip(IP_BASE, msg(5), DispatchConditions(iafull=ia, oafull=oa))
            for ia, oa, _ in self.SLOTS
        }
        assert len(ips) == 4

    @pytest.mark.parametrize(
        "conditions",
        [
            DispatchConditions(iafull=True),
            DispatchConditions(oafull=True),
            DispatchConditions(exception=True),
            DispatchConditions(iafull=True, oafull=True),
            DispatchConditions(iafull=True, oafull=True, exception=True),
        ],
        ids=["iafull", "oafull", "exception", "both-full", "all"],
    )
    def test_case2_suppressed_under_any_boundary_condition(self, conditions):
        # The type-0 fast path (MsgIp = word 1) must never fire when any
        # boundary condition holds: the word-1 IP would skip the special
        # handler version the condition selects.
        ip = compute_msg_ip(IP_BASE, msg(0, word1=0x1234_5678), conditions)
        assert ip != 0x1234_5678
        expected = 0 if not conditions.exception else HANDLER_ID_EXCEPTION
        assert decode_table_address(ip) == (
            expected, conditions.iafull, conditions.oafull
        )

    def test_next_msg_ip_sees_the_same_versions(self):
        ni = NetworkInterface()
        ni.ip_base = IP_BASE
        # Thresholds of 0: one queued message sets each almost-full bit.
        ni.write_register("CONTROL", CONTROL_LAYOUT.pack(iq_threshold=0, oq_threshold=0))
        ni.send(2)
        ni.deliver(msg(7))
        ni.deliver(msg(7))
        assert decode_table_address(ni.next_msg_ip) == (7, True, True)
        assert ni.next_msg_ip == ni.msg_ip

    @given(
        mtype=st.integers(min_value=2, max_value=15),
        iafull=st.booleans(),
        oafull=st.booleans(),
    )
    def test_unit_dispatch_roundtrips_through_decode(self, mtype, iafull, oafull):
        # decode_table_address recovers exactly what the logic encoded,
        # whatever message type and condition pair produced the address.
        conditions = DispatchConditions(iafull=iafull, oafull=oafull)
        ip = compute_msg_ip(IP_BASE, msg(mtype), conditions)
        assert decode_table_address(ip) == (mtype, iafull, oafull)
        assert ip & ~(TABLE_BYTES - 1) == IP_BASE


@given(
    mtype=st.one_of(st.none(), st.sampled_from([0] + list(range(2, 16)))),
    iafull=st.booleans(),
    oafull=st.booleans(),
    exception=st.booleans(),
)
def test_dispatch_label_follows_msg_ip(mtype, iafull, oafull, exception):
    """The label lineage and the tracer give a dispatch names the handler
    MsgIp selects: exception 0001 while one is pending, case 2 only when
    MsgIp is the message's word 1."""
    message = None if mtype is None else msg(mtype)
    conditions = DispatchConditions(iafull=iafull, oafull=oafull, exception=exception)
    detail = describe_dispatch(message, conditions)
    ip = compute_msg_ip(IP_BASE, message, conditions)
    assert (detail["iafull"], detail["oafull"]) == (iafull, oafull)
    if detail["case"] == 2:
        assert "handler_id" not in detail
        assert ip == message.word(1)
    else:
        assert detail["case"] == 1
        assert decode_table_address(ip) == (detail["handler_id"], iafull, oafull)
