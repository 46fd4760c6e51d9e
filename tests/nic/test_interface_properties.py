"""Property-based tests: the interface against a reference model.

A pure-Python reference (two unbounded-ish lists plus a current slot)
shadows the architectural :class:`NetworkInterface` through random
operation sequences; at every step both must agree on what is visible,
and no message may ever be duplicated or lost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import Message, pack_destination

CAPACITY = 4


def msg(tag: int) -> Message:
    return Message(2, (pack_destination(0), tag, 0, 0, 0))


operations = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("next"), st.just(0)),
        st.tuples(st.just("send"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("transmit"), st.just(0)),
    ),
    max_size=60,
)


class Reference:
    """The obvious model of the interface's queueing behaviour."""

    def __init__(self) -> None:
        self.current = None
        self.input = []
        self.output = []

    def deliver(self, tag):
        if self.current is None:
            self.current = tag
            return True
        if len(self.input) >= CAPACITY:
            return False
        self.input.append(tag)
        return True

    def next(self):
        self.current = self.input.pop(0) if self.input else None

    def send(self, tag):
        if len(self.output) >= CAPACITY:
            return False
        self.output.append(tag)
        return True

    def transmit(self):
        return self.output.pop(0) if self.output else None


class TestAgainstReference:
    @settings(max_examples=200)
    @given(ops=operations)
    def test_visible_state_always_agrees(self, ops):
        ni = NetworkInterface(input_capacity=CAPACITY, output_capacity=CAPACITY)
        ref = Reference()
        delivered = sent = consumed = transmitted = 0
        for op, tag in ops:
            if op == "deliver":
                accepted = ni.deliver(msg(tag))
                assert accepted == ref.deliver(tag)
                delivered += int(accepted)
            elif op == "next":
                if ref.current is not None:
                    consumed += 1
                ni.next()
                ref.next()
            elif op == "send":
                ni.write_output(1, tag)
                result = ni.send(2)
                ok = ref.send(tag)
                assert (result is SendResult.SENT) == ok
                sent += int(ok)
            else:
                got = ni.transmit()
                expected = ref.transmit()
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got.word(1) == expected
                    transmitted += 1
            # Visible state agrees after every operation.
            assert ni.msg_valid == (ref.current is not None)
            if ref.current is not None:
                assert ni.read_input(1) == ref.current
            assert ni.input_queue.depth == len(ref.input)
            assert ni.output_queue.depth == len(ref.output)
            assert ni.status["msg_valid"] == int(ref.current is not None)
            assert ni.status["iq_len"] == len(ref.input)
            assert ni.status["oq_len"] == len(ref.output)
        # Conservation: everything delivered is either consumed, current,
        # or still queued; everything sent is transmitted or queued.
        in_flight = (1 if ref.current is not None else 0) + len(ref.input)
        assert delivered == consumed + in_flight
        assert sent == transmitted + len(ref.output)

    @settings(max_examples=100)
    @given(tags=st.lists(st.integers(min_value=0, max_value=999), max_size=10))
    def test_fifo_end_to_end(self, tags):
        ni = NetworkInterface(input_capacity=len(tags) + 1)
        for tag in tags:
            assert ni.deliver(msg(tag))
        seen = []
        while ni.msg_valid:
            seen.append(ni.read_input(1))
            ni.next()
        assert seen == tags

    @settings(max_examples=100)
    @given(ops=operations)
    def test_msg_ip_consistent_with_state(self, ops):
        from repro.nic.dispatch import decode_table_address

        ni = NetworkInterface(input_capacity=CAPACITY, output_capacity=CAPACITY)
        ni.ip_base = 0x8000
        for op, tag in ops:
            if op == "deliver":
                ni.deliver(msg(tag))
            elif op == "next":
                ni.next()
            elif op == "send":
                ni.send(2)
            else:
                ni.transmit()
            handler, iafull, oafull = decode_table_address(ni.msg_ip)
            if ni.msg_valid:
                assert handler == 2
            else:
                assert handler == 0
            assert iafull == ni.input_queue.almost_full
            assert oafull == ni.output_queue.almost_full


class RecordingScheduler:
    """A tenant scheduler that records every divert it is handed."""

    def __init__(self) -> None:
        self.diverted = []

    def on_divert(self, interface, message, reason) -> None:
        self.diverted.append((message, reason))


PINS = st.integers(min_value=0, max_value=3)


@settings(max_examples=300)
@given(
    queued=st.lists(PINS, max_size=2 * CAPACITY),
    pin_check=st.booleans(),
    active_pin=PINS,
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=CAPACITY)),
    pin=PINS,
    privileged=st.booleans(),
)
def test_would_divert_exactly_when_deliver_diverts(
    queued, pin_check, active_pin, cap, pin, privileged
):
    """``would_divert(m)`` names a reason exactly when ``deliver(m)`` then
    diverts ``m``, and it is the reason the divert carries."""
    ni = NetworkInterface(input_capacity=CAPACITY)
    ni.input_queue.attach_tenant_stats()
    for queued_pin in queued:  # fills the registers, then the queue
        ni.deliver(Message(2, (pack_destination(0), 0, 0, 0, 0), pin=queued_pin))
    ni.set_tenant_cap(cap)
    ni.control["active_pin"] = active_pin
    ni.control["pin_check"] = int(pin_check)
    scheduler = RecordingScheduler()
    ni.attach_tenant_scheduler(scheduler)
    message = Message(2, (pack_destination(0), 1, 0, 0, 0), pin=pin, privileged=privileged)

    reason = ni.would_divert(message)
    ni.deliver(message)
    assert scheduler.diverted == ([] if reason is None else [(message, reason)])
