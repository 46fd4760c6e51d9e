"""Tests for the STATUS / CONTROL register layouts."""

from fnmatch import fnmatch
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BitfieldError
from repro.nic.control import (
    CONTROL_LAYOUT,
    EXCEPTION_FIELDS,
    STATUS_LAYOUT,
    ControlRegister,
    SendFullPolicy,
)
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message, pack_destination


def status_with_input(messages: int, capacity: int = 16):
    """The STATUS of an interface that has received ``messages`` messages."""
    ni = NetworkInterface(input_capacity=capacity)
    for _ in range(messages):
        assert ni.deliver(Message(2, (pack_destination(0), 0, 0, 0, 0)))
    return ni.status


class TestStatusRegister:
    def test_initially_clear(self):
        status = NetworkInterface().status
        assert status.word == 0
        assert not status.has_exception

    def test_raise_exception_sets_summary(self):
        status = NetworkInterface().status
        status.raise_exception("exc_input_error")
        assert status["exc_input_error"] == 1
        assert status["exc_any"] == 1
        assert status.has_exception

    def test_pending_exceptions(self):
        status = NetworkInterface().status
        status.raise_exception("exc_pin_mismatch")
        status.raise_exception("exc_output_overflow")
        assert set(status.pending_exceptions()) == {
            "exc_pin_mismatch",
            "exc_output_overflow",
        }

    def test_clear_exceptions(self):
        status = NetworkInterface().status
        for name in EXCEPTION_FIELDS:
            status.raise_exception(name)
        status.clear_exceptions()
        assert not status.has_exception
        assert status.pending_exceptions() == ()

    def test_clear_preserves_other_fields(self):
        # One message in the input registers, seven queued behind it.
        status = status_with_input(8)
        status.raise_exception("exc_input_error")
        status.clear_exceptions()
        assert status["msg_valid"] == 1
        assert status["iq_len"] == 7

    def test_queue_length_fields_hold_31(self):
        status = status_with_input(32, capacity=32)
        assert status["iq_len"] == 31

    def test_layout_has_no_overlap_with_type_field(self):
        # msg_type must be readable independently of msg_valid.
        word = STATUS_LAYOUT.pack(msg_type=0xF)
        assert STATUS_LAYOUT.get(word, "msg_valid") == 0


class TestControlRegister:
    def test_default_policy_is_stall(self):
        assert ControlRegister().full_policy is SendFullPolicy.STALL

    def test_policy_roundtrip(self):
        control = ControlRegister()
        control.full_policy = SendFullPolicy.EXCEPTION
        assert control.full_policy is SendFullPolicy.EXCEPTION
        assert control["full_policy"] == 1

    def test_thresholds_default(self):
        control = ControlRegister()
        assert control["iq_threshold"] == 12
        assert control["oq_threshold"] == 12

    def test_custom_thresholds(self):
        control = ControlRegister(iq_threshold=3, oq_threshold=5)
        assert control["iq_threshold"] == 3
        assert control["oq_threshold"] == 5

    def test_pin_checking(self):
        control = ControlRegister()
        assert not control.pin_checking
        control.enable_pin_checking(42)
        assert control.pin_checking
        assert control["active_pin"] == 42
        control.disable_pin_checking()
        assert not control.pin_checking

    def test_pin_field_is_8_bits(self):
        control = ControlRegister()
        control.enable_pin_checking(255)
        assert control["active_pin"] == 255


class TestLayouts:
    def test_status_and_control_fit_one_word(self):
        assert STATUS_LAYOUT.used_mask <= 0xFFFF_FFFF
        assert CONTROL_LAYOUT.used_mask <= 0xFFFF_FFFF

    def test_exception_fields_exist_in_status(self):
        for name in EXCEPTION_FIELDS:
            assert name in STATUS_LAYOUT

    def test_status_has_paper_fields(self):
        # Section 2.1: "one field in the STATUS register reports the number
        # of messages in the input queue"; 2.2.1: the type shows up in STATUS.
        for name in ("iq_len", "oq_len", "msg_valid", "msg_type"):
            assert name in STATUS_LAYOUT

    def test_control_has_paper_fields(self):
        # Section 2.1.1 (full policy), 2.2.4 (thresholds), 2.1.3 (PIN).
        for name in ("full_policy", "iq_threshold", "oq_threshold", "active_pin"):
            assert name in CONTROL_LAYOUT

    def test_policy_enum_values(self):
        assert int(SendFullPolicy.STALL) == 0
        assert int(SendFullPolicy.EXCEPTION) == 1

    @given(word=st.integers(min_value=0, max_value=0xFFFF_FFFF))
    def test_get_reads_each_field_as_its_extract(self, word):
        for layout in (STATUS_LAYOUT, CONTROL_LAYOUT):
            for field in layout:
                assert layout.get(word, field.name) == field.extract(word)

    @pytest.mark.parametrize(
        "layout", [STATUS_LAYOUT, CONTROL_LAYOUT], ids=lambda layout: layout.name
    )
    def test_get_rejects_an_unknown_field(self, layout):
        with pytest.raises(BitfieldError, match=f"layout '{layout.name}' has no field 'nope'"):
            layout.get(0, "nope")


MANUAL = Path(__file__).resolve().parents[2] / "docs" / "MANUAL.md"


def manual_rows(heading: str):
    """``(bits, field)`` cells of the field table under ``heading``."""
    lines = MANUAL.read_text().split(heading, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        bits, name = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows.append((bits, name.strip("`")))
    return rows


def bit_mask(bits: str) -> int:
    """The mask of a table's bits cell: ``4:1`` (msb:lsb), ``17–20`` or ``0``."""
    if ":" in bits:
        high, low = map(int, bits.split(":"))
    elif "–" in bits:
        low, high = map(int, bits.split("–"))
    else:
        high = low = int(bits)
    return ((1 << (high - low + 1)) - 1) << low


class TestManualTables:
    """MANUAL section 1 gives every field of both registers its bits."""

    @pytest.mark.parametrize(
        "heading, layout",
        [
            ("### STATUS fields (`repro.nic.control.STATUS_LAYOUT`)", STATUS_LAYOUT),
            ("### CONTROL fields (`repro.nic.control.CONTROL_LAYOUT`)", CONTROL_LAYOUT),
        ],
        ids=["STATUS", "CONTROL"],
    )
    def test_rows_match_layout(self, heading, layout):
        rows = manual_rows(heading)
        named = {name for _, name in rows if "*" not in name}
        covered = []
        for bits, name in rows:
            # A wildcard row stands for the fields no other row names.
            fields = [
                field
                for field in layout
                if field.name == name
                or ("*" in name and fnmatch(field.name, name) and field.name not in named)
            ]
            assert fields, f"{layout.name} has no field {name!r}"
            assert sum(field.field_mask for field in fields) == bit_mask(bits), name
            covered += [field.name for field in fields]
        assert sorted(covered) == sorted(field.name for field in layout)
