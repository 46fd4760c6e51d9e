"""The STATUS word against field-by-field layout updates.

STATUS stores only the bits written to it (the exception bits, in use)
and computes the six hardware-maintained fields from the interface when
it is read, with shifts and masks derived from the register layouts.
The reference here is the obvious implementation: set each field through
``STATUS_LAYOUT.update`` on the preset word.  The two must agree bit for
bit — queue lengths past the 5-bit clamp, any CONTROL thresholds, with
and without a current message, and with arbitrary exception and unused
bits already set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.control import CONTROL_LAYOUT, EXCEPTION_FIELDS, QUEUE_LEN_BITS, STATUS_LAYOUT
from repro.nic.dispatch import decode_table_address
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message, pack_destination

LEN_MAX = (1 << QUEUE_LEN_BITS) - 1


def msg(mtype: int = 2) -> Message:
    return Message(mtype, (pack_destination(0), 0, 0, 0, 0))


@st.composite
def queue(draw):
    """(capacity, depth, CONTROL threshold)."""
    capacity = draw(st.integers(min_value=1, max_value=40))
    depth = draw(st.integers(min_value=0, max_value=capacity))
    threshold = draw(st.integers(min_value=0, max_value=LEN_MAX))
    return capacity, depth, threshold


@settings(max_examples=300, deadline=None)
@given(
    iq=queue(),
    oq=queue(),
    current=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
    preset=st.integers(min_value=0, max_value=0xFFFF_FFFF),
)
def test_status_reads_the_field_by_field_word(iq, oq, current, preset):
    iq_capacity, iq_depth, iq_threshold = iq
    oq_capacity, oq_depth, oq_threshold = oq
    ni = NetworkInterface(
        node=0, input_capacity=iq_capacity, output_capacity=oq_capacity
    )
    for _ in range(iq_depth):
        ni.input_queue.push(msg())
    for _ in range(oq_depth):
        ni.output_queue.push(msg())
    ni.control["iq_threshold"] = iq_threshold
    ni.control["oq_threshold"] = oq_threshold
    ni._current = None if current is None else msg(current)
    ni.status.word = preset

    iq_effective = min(iq_threshold, iq_capacity)
    oq_effective = min(oq_threshold, oq_capacity)
    expected = preset
    for name, value in (
        ("msg_valid", 0 if current is None else 1),
        ("msg_type", 0 if current is None else current),
        ("iq_len", min(iq_depth, LEN_MAX)),
        ("oq_len", min(oq_depth, LEN_MAX)),
        ("iafull", 1 if iq_depth > iq_effective else 0),
        ("oafull", 1 if oq_depth > oq_effective else 0),
    ):
        expected = STATUS_LAYOUT.update(expected, **{name: value})
    assert ni.status.word == expected
    assert ni.read_register("STATUS") == expected
    assert ni.input_queue.threshold == iq_effective
    assert ni.output_queue.threshold == oq_effective
    assert ni.input_queue.almost_full == bool(ni.status["iafull"])
    assert ni.output_queue.almost_full == bool(ni.status["oafull"])


def test_control_threshold_write_takes_effect_at_once():
    """A threshold written to CONTROL reaches STATUS and the MsgIp
    version bits before any queue operation."""
    ni = NetworkInterface()
    ni.ip_base = 0x10_0000
    ni.deliver(msg(5))
    ni.deliver(msg(5))  # one message in i0..i4, one queued
    ni.send(2)
    assert (ni.status["iafull"], ni.status["oafull"]) == (0, 0)
    assert decode_table_address(ni.msg_ip) == (5, False, False)

    ni.control["iq_threshold"] = 0
    assert (ni.status["iafull"], ni.status["oafull"]) == (1, 0)
    assert decode_table_address(ni.msg_ip) == (5, True, False)

    ni.control.word = CONTROL_LAYOUT.update(ni.control.word, oq_threshold=0)
    assert (ni.status["iafull"], ni.status["oafull"]) == (1, 1)
    assert decode_table_address(ni.msg_ip) == (5, True, True)
    assert decode_table_address(ni.next_msg_ip) == (5, True, True)

    ni.control["iq_threshold"] = 1
    ni.control["oq_threshold"] = 1
    assert (ni.status["iafull"], ni.status["oafull"]) == (0, 0)
    assert decode_table_address(ni.msg_ip) == (5, False, False)


def read_with_stored(stored: int) -> int:
    """What an empty interface's STATUS reads with ``stored`` written to it."""
    ni = NetworkInterface()
    ni.status.word = stored
    return ni.status.word


@given(
    preset=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    name=st.sampled_from(EXCEPTION_FIELDS),
)
def test_exception_clears_are_the_field_by_field_updates(preset, name):
    """``clear_exceptions`` and ``acknowledge`` are single masked stores;
    each must equal its field-by-field reference on any stored word."""
    ni = NetworkInterface()
    ni.status.word = preset
    ni.status.clear_exceptions()
    cleared = STATUS_LAYOUT.update(
        preset, exc_any=0, **{field: 0 for field in EXCEPTION_FIELDS}
    )
    assert ni.status.word == read_with_stored(cleared)

    ni.status.word = preset
    ni.status.acknowledge(name)
    acknowledged = STATUS_LAYOUT.update(preset, **{name: 0})
    if not any(STATUS_LAYOUT.get(acknowledged, field) for field in EXCEPTION_FIELDS):
        acknowledged = STATUS_LAYOUT.update(acknowledged, exc_any=0)
    assert ni.status.word == read_with_stored(acknowledged)
