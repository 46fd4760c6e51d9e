"""The architecture's message format (paper Figure 2).

A message is exactly five 32-bit words, ``m0`` through ``m4``, plus a 4-bit
type field that travels with the message but outside its data words.  The
logical address of the destination processor occupies the high bits of
``m0``; translation from logical address to a network route is the fabric's
concern (Section 2.1 of the paper leaves it implementation dependent).

Two type values are architecturally special (Section 2.2.3):

* type ``0`` — the handler's instruction pointer is carried in word 1 of the
  message itself (used by Send/reply messages);
* type ``1`` — reserved; never sent.  The dispatch hardware uses handler id
  ``0001`` to report exceptional conditions.

For multi-user protection (Section 2.1.3) each message may additionally be
tagged with the process identification number (PIN) of the sending process
and a privileged bit.  Those tags ride in the fabric envelope, not in the
five data words, mirroring how real hardware would widen the flit format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Sequence, Tuple

from repro.errors import MessageFormatError
from repro.utils.bitfield import WORD_MASK, to_word

MESSAGE_WORDS = 5
"""Number of 32-bit data words in every message (Figure 2)."""

TYPE_BITS = 4
"""Width of the message type field."""

TYPE_MASK = (1 << TYPE_BITS) - 1

DEST_BITS = 10
"""Width of the logical destination address in the high bits of ``m0``.

Ten bits supports machines of up to 1024 nodes, comfortably above every
configuration the evaluation uses.  The constant is architectural for this
reproduction: both the send path (which packs the destination) and the
fabric (which routes on it) import it from here.
"""

DEST_SHIFT = 32 - DEST_BITS
DEST_MASK = ((1 << DEST_BITS) - 1) << DEST_SHIFT

TYPE_MSG_IP = 0
"""Messages whose handler IP is carried in word 1 (Figure 7, case 2)."""

TYPE_EXCEPTION = 1
"""Reserved type: the dispatch hardware reports exceptions as handler 0001."""

FIRST_USER_TYPE = 2
"""Lowest type value available to user-defined handlers."""

LAST_USER_TYPE = TYPE_MASK
"""Highest type value available to user-defined handlers."""


def check_type(mtype: int) -> None:
    """Raise :class:`MessageFormatError` unless ``mtype`` fits the type field."""
    if mtype < 0 or mtype > TYPE_MASK:
        raise MessageFormatError(
            f"message type {mtype} does not fit in {TYPE_BITS} bits"
        )


def pack_destination(node: int, low_bits: int = 0) -> int:
    """Build an ``m0`` word addressed to logical ``node``.

    ``low_bits`` fills the non-address portion of the word (for example the
    low bits of a frame pointer or memory address local to the destination).
    """
    if node < 0 or node >= (1 << DEST_BITS):
        raise MessageFormatError(
            f"destination node {node} does not fit in {DEST_BITS} address bits"
        )
    if low_bits & DEST_MASK:
        raise MessageFormatError(
            f"low bits {low_bits:#x} collide with the destination field"
        )
    return (node << DEST_SHIFT) | to_word(low_bits)


def unpack_destination(m0: int) -> Tuple[int, int]:
    """Split an ``m0`` word into ``(logical node, low bits)``."""
    word = to_word(m0)
    return word >> DEST_SHIFT, word & ~DEST_MASK & WORD_MASK


@dataclass(frozen=True)
class Message:
    """An immutable five-word message plus its 4-bit type.

    Instances are frozen so a message captured in a queue or in-flight in
    the fabric can never be mutated behind the architecture's back; send
    paths build new instances instead.
    """

    mtype: int
    words: Tuple[int, int, int, int, int]
    pin: int = 0
    privileged: bool = False

    def __post_init__(self) -> None:
        check_type(self.mtype)
        words = self.words
        if len(words) != MESSAGE_WORDS:
            raise MessageFormatError(
                f"message must have exactly {MESSAGE_WORDS} words, "
                f"got {len(words)}"
            )
        # Every sent message is built here: one tuple, no generator.
        clean = (
            words[0] & WORD_MASK,
            words[1] & WORD_MASK,
            words[2] & WORD_MASK,
            words[3] & WORD_MASK,
            words[4] & WORD_MASK,
        )
        if clean != tuple(words):
            object.__setattr__(self, "words", clean)

    @classmethod
    def build(
        cls,
        mtype: int,
        destination: int,
        payload: Sequence[int] = (),
        m0_low: int = 0,
        pin: int = 0,
        privileged: bool = False,
    ) -> "Message":
        """Construct a message to ``destination`` with ``payload`` in m1..m4.

        ``payload`` may hold up to four words; missing words are zero.  The
        destination and ``m0_low`` are packed into ``m0``.
        """
        if len(payload) > MESSAGE_WORDS - 1:
            raise MessageFormatError(
                f"payload of {len(payload)} words does not fit in m1..m4"
            )
        words: List[int] = [pack_destination(destination, m0_low)]
        words.extend(to_word(w) for w in payload)
        words.extend([0] * (MESSAGE_WORDS - len(words)))
        return cls(mtype, tuple(words), pin=pin, privileged=privileged)

    @property
    def destination(self) -> int:
        """The logical destination node encoded in the high bits of m0."""
        return unpack_destination(self.words[0])[0]

    @property
    def m0_low(self) -> int:
        """The non-address low bits of m0."""
        return unpack_destination(self.words[0])[1]

    def word(self, index: int) -> int:
        """Return data word ``m<index>``."""
        if index < 0 or index >= MESSAGE_WORDS:
            raise MessageFormatError(f"message has no word m{index}")
        return self.words[index]

    def with_type(self, mtype: int) -> "Message":
        """A copy of this message with a different type field."""
        return replace(self, mtype=mtype)

    def with_pin(self, pin: int) -> "Message":
        """A copy of this message tagged with ``pin``."""
        return replace(self, pin=pin)

    def as_privileged(self) -> "Message":
        """A copy of this message marked privileged (OS-destined)."""
        return replace(self, privileged=True)

    def __str__(self) -> str:
        body = " ".join(f"{w:08x}" for w in self.words)
        return f"Message(type={self.mtype}, dest={self.destination}, [{body}])"


@dataclass
class MessageTypeRegistry:
    """Symbolic names for the 4-bit message types used by a protocol.

    The architecture only fixes types 0 and 1; everything else is a software
    convention.  The registry keeps the convention explicit, validates that
    no protocol tries to register the reserved exception type, and supports
    the "escape" pattern of Section 2.2.1 (one type value set aside for rare
    message kinds identified by a full 32-bit id in word 4).
    """

    names: dict = field(default_factory=dict)
    escape_type: int | None = None

    def register(self, name: str, mtype: int) -> int:
        """Bind ``name`` to type value ``mtype`` and return the value."""
        if mtype == TYPE_EXCEPTION:
            raise MessageFormatError(
                "type 1 is reserved for exception reporting and cannot be sent"
            )
        if mtype < 0 or mtype > TYPE_MASK:
            raise MessageFormatError(f"type {mtype} out of range")
        existing = self.names.get(name)
        if existing is not None and existing != mtype:
            raise MessageFormatError(
                f"type name {name!r} already bound to {existing}"
            )
        for other_name, other_type in self.names.items():
            if other_type == mtype and other_name != name:
                raise MessageFormatError(
                    f"type value {mtype} already bound to {other_name!r}"
                )
        self.names[name] = mtype
        return mtype

    def register_escape(self, name: str, mtype: int) -> int:
        """Register the escape type used for uncommon message kinds."""
        value = self.register(name, mtype)
        self.escape_type = value
        return value

    def lookup(self, name: str) -> int:
        """Return the type value bound to ``name``."""
        try:
            return self.names[name]
        except KeyError:
            raise MessageFormatError(f"unknown message type name {name!r}") from None

    def name_of(self, mtype: int) -> str:
        """Return the name bound to ``mtype`` (or a numeric placeholder)."""
        for name, value in self.names.items():
            if value == mtype:
                return name
        return f"type{mtype}"

    def registered(self) -> Iterable[Tuple[str, int]]:
        """All (name, value) bindings, in registration order."""
        return tuple(self.names.items())


# ----------------------------------------------------------------------
# Scatter/gather framing.
#
# The architecture's messages are five words, so bulk or non-contiguous
# data (a gather of strided elements, a scatter into a remote frame) must
# be *framed* across several messages.  One word of each fragment is a
# self-describing header -- where this fragment's run of elements lands,
# how many ride in this message, and how large the whole transfer is --
# so fragments may arrive in any order through an adaptive network and
# still reassemble deterministically.  The framing deliberately spends a
# data word on the header rather than widening the message: five words
# and a 4-bit type are the architecture (Figure 2).
# ----------------------------------------------------------------------

SG_OFFSET_BITS = 12
"""Element-offset field width: transfers address up to 4096 elements."""

SG_COUNT_BITS = 4
"""Per-fragment element count field (a fragment carries at most 3)."""

SG_TOTAL_BITS = 16
"""Whole-transfer element count, for completion detection at the receiver."""

_SG_OFFSET_SHIFT = SG_COUNT_BITS + SG_TOTAL_BITS
_SG_COUNT_SHIFT = SG_TOTAL_BITS


def pack_sg_header(offset: int, count: int, total: int) -> int:
    """Build a scatter/gather fragment header word.

    ``offset`` is the element index of this fragment's first value,
    ``count`` the number of values riding in this message, ``total`` the
    element count of the whole transfer.
    """
    if not 0 <= offset < (1 << SG_OFFSET_BITS):
        raise MessageFormatError(
            f"scatter/gather offset {offset} does not fit in {SG_OFFSET_BITS} bits"
        )
    if not 0 < count < (1 << SG_COUNT_BITS):
        raise MessageFormatError(
            f"scatter/gather fragment count {count} out of range"
        )
    if not 0 < total < (1 << SG_TOTAL_BITS):
        raise MessageFormatError(
            f"scatter/gather total {total} does not fit in {SG_TOTAL_BITS} bits"
        )
    return (offset << _SG_OFFSET_SHIFT) | (count << _SG_COUNT_SHIFT) | total


def unpack_sg_header(word: int) -> Tuple[int, int, int]:
    """Inverse of :func:`pack_sg_header`: ``(offset, count, total)``."""
    word = to_word(word)
    return (
        word >> _SG_OFFSET_SHIFT,
        (word >> _SG_COUNT_SHIFT) & ((1 << SG_COUNT_BITS) - 1),
        word & ((1 << SG_TOTAL_BITS) - 1),
    )


def sg_header_word(mtype: int) -> int:
    """Which word carries the fragment header for a given message type.

    Type-0 messages must keep the handler IP in word 1 (the MsgIp case-2
    contract), so their header moves to word 2 and they carry one fewer
    value per fragment.
    """
    return 2 if mtype == TYPE_MSG_IP else 1


def sg_capacity(mtype: int) -> int:
    """Values per fragment: 3 for typed messages, 2 for type-0."""
    return MESSAGE_WORDS - 1 - sg_header_word(mtype)


def build_gather_messages(
    mtype: int,
    destination: int,
    elements: Sequence[Tuple[int, int]],
    ip: int | None = None,
    m0_low: int = 0,
    pin: int = 0,
) -> List[Message]:
    """Frame ``elements`` — (offset, value) pairs, offsets need not be
    contiguous — into a list of fragment messages.

    Consecutive offsets coalesce into runs so a dense transfer uses the
    fragment capacity fully; a fully strided gather degenerates to one
    element per fragment, which is the honest cost of non-contiguity in
    a five-word-message architecture.  Type-0 fragments carry ``ip`` in
    word 1 (required); typed fragments must not pass one.
    """
    if mtype == TYPE_EXCEPTION:
        raise MessageFormatError(
            "type 1 is reserved for exception reporting and cannot be sent"
        )
    if (ip is None) == (mtype == TYPE_MSG_IP):
        raise MessageFormatError(
            "type-0 gather fragments require a handler ip; typed ones forbid it"
        )
    elements = list(elements)
    if not elements:
        raise MessageFormatError("a scatter/gather transfer needs elements")
    total = len(elements)
    capacity = sg_capacity(mtype)
    # Split into maximal runs of consecutive offsets, then chunk by capacity.
    runs: List[List[Tuple[int, int]]] = [[elements[0]]]
    for offset, value in elements[1:]:
        if offset == runs[-1][-1][0] + 1:
            runs[-1].append((offset, value))
        else:
            runs.append([(offset, value)])
    messages: List[Message] = []
    for run in runs:
        for start in range(0, len(run), capacity):
            chunk = run[start:start + capacity]
            header = pack_sg_header(chunk[0][0], len(chunk), total)
            payload: List[int] = [ip, header] if ip is not None else [header]
            payload.extend(value for _, value in chunk)
            messages.append(
                Message.build(
                    mtype, destination, payload, m0_low=m0_low, pin=pin
                )
            )
    return messages


class GatherAssembler:
    """Reassembles one scatter/gather transfer from its fragments.

    Fragments may arrive in any order and interleaved with other traffic
    (the caller routes the right messages here, e.g. by type or inlet).
    Completion is header-driven: every fragment carries the transfer's
    total element count, so the assembler knows it is done without a
    separate end-of-transfer message.
    """

    def __init__(self) -> None:
        self.values: dict = {}
        self.total: int | None = None
        self.fragments = 0
        self.duplicates = 0

    def accept(self, message: Message) -> bool:
        """Fold one fragment in; returns True when the transfer is complete."""
        header_word = sg_header_word(message.mtype)
        offset, count, total = unpack_sg_header(message.word(header_word))
        if count > MESSAGE_WORDS - 1 - header_word:
            raise MessageFormatError(
                f"fragment claims {count} values; message has no room for them"
            )
        if self.total is None:
            self.total = total
        elif self.total != total:
            raise MessageFormatError(
                f"fragment total {total} disagrees with transfer total {self.total}"
            )
        self.fragments += 1
        for position in range(count):
            index = offset + position
            value = message.word(header_word + 1 + position)
            if index in self.values:
                self.duplicates += 1
            self.values[index] = value
        return self.complete

    @property
    def complete(self) -> bool:
        return self.total is not None and len(self.values) == self.total

    def result(self) -> List[Tuple[int, int]]:
        """The assembled (offset, value) pairs, ordered by offset."""
        if not self.complete:
            raise MessageFormatError(
                f"gather incomplete: {len(self.values)} of {self.total} elements"
            )
        return sorted(self.values.items())


def default_registry() -> MessageTypeRegistry:
    """The message-type convention used throughout the evaluation.

    Mirrors the protocol of Section 2.1.4 and Section 4.1: the general Send
    (type 0, handler IP in the message), remote Read/Write, and the
    presence-bit PRead/PWrite pair, plus an escape type for rare kinds.
    """
    registry = MessageTypeRegistry()
    registry.register("send", TYPE_MSG_IP)
    registry.register("read", 2)
    registry.register("write", 3)
    registry.register("pread", 4)
    registry.register("pwrite", 5)
    registry.register("read_reply", 6)
    registry.register_escape("escape", LAST_USER_TYPE)
    return registry
