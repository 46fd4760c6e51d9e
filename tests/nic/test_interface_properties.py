"""Property-based tests: the interface against a reference model.

A pure-Python reference (two unbounded-ish lists plus a current slot)
shadows the architectural :class:`NetworkInterface` through random
operation sequences; at every step both must agree on what is visible,
and no message may ever be duplicated or lost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    MessageFormatError,
    QueueOverflowError,
    ReproError,
    ReservedTypeError,
)
from repro.nic.control import CONTROL_LAYOUT, SendFullPolicy
from repro.nic.interface import NetworkInterface, SendMode, SendResult
from repro.nic.messages import MESSAGE_WORDS, TYPE_EXCEPTION, Message, pack_destination
from repro.obs.observer import Observer

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


# ----------------------------------------------------------------------
# SEND tests the output queue first; the compose-first SEND is the oracle.


def compose_first_send(ni, clock, mtype, mode):
    """SEND as it was when every call composed its message before it
    looked at the output queue, written against the interface's visible
    state: the oracle for :meth:`NetworkInterface.send`."""
    if mtype == TYPE_EXCEPTION:
        raise ReservedTypeError(
            "message type 1 is reserved for exception dispatch (Section 2.2.4)"
        )
    substitution = {}
    if mode is SendMode.REPLY:
        substitution = {0: 1, 1: 2}
    elif mode is SendMode.FORWARD:
        substitution = {2: 2, 3: 3, 4: 4}
    current = ni.current_message
    if substitution and current is None:
        raise MessageFormatError(
            f"SEND {mode.value} requires a message in the input registers"
        )
    words = [
        current.word(substitution[position])
        if position in substitution
        else ni.output_registers[position]
        for position in range(MESSAGE_WORDS)
    ]
    message = Message(mtype, tuple(words), pin=ni.control["active_pin"])
    if ni.output_queue.is_full:
        if ni.control.full_policy is SendFullPolicy.EXCEPTION:
            ni.status.raise_exception("exc_output_overflow")
            raise QueueOverflowError(
                f"node {ni.node}: output queue full and policy is EXCEPTION"
            )
        ni.stats.send_stalls += 1
        if ni.observer is not None:
            ni.observer.on_stall(clock(), ni.node, message.destination)
        return SendResult.STALLED
    ni.output_queue.push(message)
    ni.stats.sends += 1
    ni.stats.sends_by_mode[mode] += 1
    if ni.observer is not None:
        ni.observer.on_send(clock(), ni.node, message, mode)
    return SendResult.SENT


class Events(Observer):
    """Every interface event, in order."""

    def __init__(self) -> None:
        self.events = []

    def on_send(self, ts, node, message, mode):
        self.events.append(("send", ts, node, message, mode))

    def on_stall(self, ts, node, destination):
        self.events.append(("stall", ts, node, destination))

    def on_refuse(self, ts, node, message):
        self.events.append(("refuse", ts, node, message))

    def on_deliver(self, ts, node, message):
        self.events.append(("deliver", ts, node, message))

    def on_divert(self, ts, node, message, reason):
        self.events.append(("divert", ts, node, message, reason))

    def on_dispatch(self, ts, node, message, detail):
        self.events.append(("dispatch", ts, node, message, detail))

    def on_retire(self, ts, node, message):
        self.events.append(("retire", ts, node, message))


#: One step of each kind.  Most SENDs are valid, so the one-slot output
#: queue fills; about one in five has a type outside 2..15 and one in
#: four a REPLY or FORWARD mode, which fails while the input registers
#: are empty.
STEP = {
    "send": st.tuples(
        st.just("send"),
        st.one_of(
            st.integers(min_value=2, max_value=15),
            st.integers(min_value=2, max_value=15),
            st.integers(min_value=2, max_value=15),
            st.sampled_from([-1, 0, 1, 16]),
        ),
        st.sampled_from(
            [SendMode.NORMAL, SendMode.NORMAL, SendMode.NORMAL, SendMode.REPLY, SendMode.FORWARD]
        ),
    ),
    "write_output": st.tuples(
        st.just("write_output"),
        st.integers(min_value=0, max_value=MESSAGE_WORDS - 1),
        st.integers(min_value=0, max_value=(1 << 34) - 1),
    ),
    "deliver": st.tuples(
        st.just("deliver"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=0xFFFF_FFFF),
        PINS,
    ),
    "next": st.just(("next",)),
    "transmit": st.just(("transmit",)),
    "control": st.tuples(
        st.just("control"),
        st.builds(
            lambda policy, pin, check, iq, oq: CONTROL_LAYOUT.pack(
                full_policy=policy,
                active_pin=pin,
                pin_check=check,
                iq_threshold=iq,
                oq_threshold=oq,
            ),
            st.integers(min_value=0, max_value=1),
            PINS,
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    "clear_status": st.just(("clear_status",)),
}
#: A whole interface's command stream, SENDs four times as likely as any
#: other kind of step.
STEPS = st.lists(
    st.sampled_from(["send"] * 4 + [kind for kind in STEP if kind != "send"]).flatmap(
        STEP.__getitem__
    ),
    min_size=10,
    max_size=40,
)


def other_step(ni, step):
    """Apply one non-SEND step to ``ni``; returns what the call returns."""
    op = step[0]
    if op == "write_output":
        return ni.write_output(step[1], step[2])
    if op == "deliver":
        return ni.deliver(
            Message(step[1], (pack_destination(0), step[2], 0, 0, 0), pin=step[3])
        )
    if op == "next":
        return ni.next()
    if op == "transmit":
        return ni.transmit()
    if op == "control":
        return ni.write_register("CONTROL", step[1])
    return ni.write_register("STATUS", 0)


def outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return call()
    except ReproError as error:
        return type(error), str(error)


def visible(ni, events):
    """What the two interfaces must agree on after every step."""
    return (
        ni.stats,
        ni.status.word,
        ni.control.word,
        list(ni.output_queue),
        ni.output_queue.stats,
        list(ni.input_queue),
        ni.current_message,
        ni.privileged_store,
        events.events,
    )


def check_against_compose_first(steps, observed):
    """Run ``steps`` on two interfaces, one SENDing through
    :meth:`NetworkInterface.send` and one through the oracle; after every
    step both agree on the result or error, the stats, STATUS, the
    queues and the event stream."""
    cycle = [0]

    def clock():
        return cycle[0]

    sides = []
    for _ in range(2):
        ni = NetworkInterface(node=3, input_capacity=2, output_capacity=1)
        events = Events()
        if observed:
            ni.attach(events, clock)
        sides.append((ni, events))
    (ni, ni_events), (oracle, oracle_events) = sides
    for step in steps:
        cycle[0] += 1
        if step[0] == "send":
            _, mtype, mode = step
            got = outcome(lambda: ni.send(mtype, mode))
            expected = outcome(lambda: compose_first_send(oracle, clock, mtype, mode))
        else:
            got = outcome(lambda: other_step(ni, step))
            expected = outcome(lambda: other_step(oracle, step))
        assert got == expected, step
        assert visible(ni, ni_events) == visible(oracle, oracle_events), step


DIFFERENTIAL = settings(deadline=None, derandomize=True)


@settings(DIFFERENTIAL, max_examples=200)
@given(steps=STEPS, observed=st.booleans())
def test_send_matches_the_compose_first_send(steps, observed):
    check_against_compose_first(steps, observed)


@pytest.mark.slow
@settings(DIFFERENTIAL, max_examples=3000)
@given(steps=STEPS, observed=st.booleans())
def test_send_matches_the_compose_first_send_extended(steps, observed):
    check_against_compose_first(steps, observed)
