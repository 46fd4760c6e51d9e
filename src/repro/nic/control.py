"""The ``STATUS`` and ``CONTROL`` interface registers.

The paper (Section 2.1, Figure 1) gives both registers by role rather than
by exact layout: ``CONTROL`` holds values that control the interface's
operation (what to do when the output queue is full, the queue thresholds of
Section 2.2.4, the protection state of Section 2.1.3) and ``STATUS`` reports
the interface's current state (input-queue occupancy, the arrived message's
type, exceptional conditions).  The concrete bit assignments below are this
reproduction's implementation choice; all software in the repository reads
and writes fields through these layouts, never raw bit positions.
"""

from __future__ import annotations

import enum

from repro.utils.bitfield import WORD_MASK, BitField, BitLayout, Register, to_word

QUEUE_LEN_BITS = 5
"""Width of the queue-occupancy fields; supports depths up to 31."""

PIN_BITS = 12
"""Width of the process identification number used for protection.

Originally 8; widened to 12 so the multi-tenant serving study
(:mod:`repro.tenancy`) can name thousands of protection domains.  All
software accesses CONTROL through field names (see the module docstring),
so the layout shift is invisible outside this file.
"""


class SendFullPolicy(enum.IntEnum):
    """What a SEND does when the output queue is full (Section 2.1.1).

    ``STALL`` blocks the processor until the network drains the queue;
    ``EXCEPTION`` raises instead, for software that must keep running to
    help empty the network.
    """

    STALL = 0
    EXCEPTION = 1


STATUS_LAYOUT = BitLayout(
    "STATUS",
    [
        # A valid message occupies the input registers (i0..i4).
        BitField("msg_valid", 0, 1),
        # The 4-bit type of that message (Section 2.2.1).
        BitField("msg_type", 1, 4),
        # Occupancy of the two queues, in messages.
        BitField("iq_len", 5, QUEUE_LEN_BITS),
        BitField("oq_len", 10, QUEUE_LEN_BITS),
        # Almost-full conditions (Section 2.2.4).
        BitField("iafull", 15, 1),
        BitField("oafull", 16, 1),
        # Exceptional conditions reported through handler id 0001.
        BitField("exc_input_error", 17, 1),
        BitField("exc_output_overflow", 18, 1),
        BitField("exc_pin_mismatch", 19, 1),
        BitField("exc_privileged", 20, 1),
        # OR of all exception bits, checked first by the exception handler.
        BitField("exc_any", 21, 1),
    ],
)

CONTROL_LAYOUT = BitLayout(
    "CONTROL",
    [
        # Almost-full thresholds for the two queues (Section 2.2.4).
        BitField("iq_threshold", 0, QUEUE_LEN_BITS),
        BitField("oq_threshold", 5, QUEUE_LEN_BITS),
        # SEND-when-full policy (Section 2.1.1).
        BitField("full_policy", 10, 1),
        # Protection state (Section 2.1.3).
        BitField("active_pin", 11, PIN_BITS),
        BitField("pin_check", 11 + PIN_BITS, 1),
        BitField("privileged_interrupt", 12 + PIN_BITS, 1),
        # Section 2.1 leaves polled-versus-interrupt-driven open; this bit
        # selects an interrupt on message arrival instead of polling.
        BitField("arrival_interrupt", 13 + PIN_BITS, 1),
    ],
)

EXCEPTION_FIELDS = (
    "exc_input_error",
    "exc_output_overflow",
    "exc_pin_mismatch",
    "exc_privileged",
)


# The STATUS fields computed from the interface when STATUS is read, with
# their shifts and masks taken from the layout so a read is one word of
# integer arithmetic; every other STATUS bit is stored.
_IQ_LEN = STATUS_LAYOUT.field("iq_len")
_OQ_LEN = STATUS_LAYOUT.field("oq_len")
_MSG_TYPE_SHIFT = STATUS_LAYOUT.field("msg_type").shift
_MSG_VALID = STATUS_LAYOUT.field("msg_valid").field_mask
_IAFULL = STATUS_LAYOUT.field("iafull").field_mask
_OAFULL = STATUS_LAYOUT.field("oafull").field_mask
_STORED_BITS = WORD_MASK & ~sum(
    STATUS_LAYOUT.field(name).field_mask
    for name in ("msg_valid", "msg_type", "iq_len", "oq_len", "iafull", "oafull")
)

# The CONTROL fields that set the input and output queues' thresholds.
_THRESHOLDS = (CONTROL_LAYOUT.field("iq_threshold"), CONTROL_LAYOUT.field("oq_threshold"))
_THRESHOLD_BITS = _THRESHOLDS[0].field_mask | _THRESHOLDS[1].field_mask


class StatusRegister(Register):
    """The hardware-maintained ``STATUS`` register of one interface.

    It stores only the exception bits and any other bit written to it.
    ``msg_valid``, ``msg_type``, the two queue lengths (clamped to their
    fields) and the two almost-full bits are a view of ``interface``'s
    input registers and queues, computed whenever STATUS is read.
    """

    def __init__(self, interface) -> None:
        super().__init__(STATUS_LAYOUT)
        self._interface = interface

    @property
    def word(self) -> int:
        interface = self._interface
        iq = interface.input_queue
        oq = interface.output_queue
        word = (
            (self._word & _STORED_BITS)
            | min(len(iq), _IQ_LEN.max_value) << _IQ_LEN.shift
            | min(len(oq), _OQ_LEN.max_value) << _OQ_LEN.shift
        )
        current = interface.current_message
        if current is not None:
            word |= _MSG_VALID | current.mtype << _MSG_TYPE_SHIFT
        if iq.almost_full:
            word |= _IAFULL
        if oq.almost_full:
            word |= _OAFULL
        return word

    @word.setter
    def word(self, value: int) -> None:
        self._word = to_word(value)

    def __getitem__(self, name: str) -> int:
        return self.layout.get(self.word, name)

    def raise_exception(self, name: str) -> None:
        """Set one exception bit and the summary bit."""
        self[name] = 1
        self["exc_any"] = 1

    def clear_exceptions(self) -> None:
        """Clear all exception bits (done by the software exception handler)."""
        for field_name in EXCEPTION_FIELDS:
            self[field_name] = 0
        self["exc_any"] = 0

    @property
    def has_exception(self) -> bool:
        # A stored bit: polled on every dispatch, so read without
        # computing the rest of the word.
        return bool(self.layout.get(self._word, "exc_any"))

    def pending_exceptions(self) -> tuple[str, ...]:
        """Names of the exception conditions currently asserted."""
        return tuple(name for name in EXCEPTION_FIELDS if self[name])


class ControlRegister(Register):
    """The software-written ``CONTROL`` register.

    Given an interface's ``(input_queue, output_queue)``, it is the one
    source of their almost-full thresholds: a write that changes a
    threshold field sets that queue's threshold at once, and any other
    write leaves the queues alone.
    """

    def __init__(
        self,
        iq_threshold: int = 12,
        oq_threshold: int = 12,
        full_policy: SendFullPolicy = SendFullPolicy.STALL,
        queues=(),
    ) -> None:
        super().__init__(
            CONTROL_LAYOUT,
            CONTROL_LAYOUT.pack(
                iq_threshold=iq_threshold,
                oq_threshold=oq_threshold,
                full_policy=int(full_policy),
            ),
        )
        self._queues = tuple(queues)
        self._set_thresholds()

    @property
    def word(self) -> int:
        return self._word

    @word.setter
    def word(self, value: int) -> None:
        value = to_word(value)
        changed = (value ^ self._word) & _THRESHOLD_BITS
        self._word = value
        if changed:
            self._set_thresholds()

    def _set_thresholds(self) -> None:
        for threshold, queue in zip(_THRESHOLDS, self._queues):
            queue.set_threshold(threshold.extract(self._word))

    @property
    def full_policy(self) -> SendFullPolicy:
        return SendFullPolicy(self["full_policy"])

    @full_policy.setter
    def full_policy(self, policy: SendFullPolicy) -> None:
        self["full_policy"] = int(policy)

    @property
    def pin_checking(self) -> bool:
        return bool(self["pin_check"])

    def enable_pin_checking(self, active_pin: int) -> None:
        """Turn on PIN matching for the given active process."""
        self["active_pin"] = active_pin
        self["pin_check"] = 1

    def disable_pin_checking(self) -> None:
        self["pin_check"] = 0
