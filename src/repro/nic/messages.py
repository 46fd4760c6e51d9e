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

from dataclasses import dataclass
from typing import Tuple

from repro.errors import MessageFormatError
from repro.utils.bitfield import WORD_MASK, to_word

MESSAGE_WORDS = 5
"""Number of 32-bit data words in every message (Figure 2)."""

FLITS_PER_MESSAGE = MESSAGE_WORDS + 1
"""Link flits per message: one HEAD flit plus five DATA flits."""

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
        # Every sent message is built here: one tuple, no generator.  A
        # list never equals a tuple, so a list of words is always
        # replaced and the message stays hashable.
        clean = (
            words[0] & WORD_MASK,
            words[1] & WORD_MASK,
            words[2] & WORD_MASK,
            words[3] & WORD_MASK,
            words[4] & WORD_MASK,
        )
        if clean != words:
            object.__setattr__(self, "words", clean)

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

    def __str__(self) -> str:
        body = " ".join(f"{w:08x}" for w in self.words)
        return f"Message(type={self.mtype}, dest={self.destination}, [{body}])"
