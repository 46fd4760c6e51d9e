"""Variable-length messages via SCROLL-IN / SCROLL-OUT (Section 2.1.2).

The base architecture moves exactly five words per message.  For longer
messages the paper extends the input and output registers into *scrolling
windows*: ``SCROLL-OUT`` transmits the five output-register words and keeps
composing the same (still-open) message, and ``SCROLL-IN`` advances the
input window by five words within one incoming message.

This module implements that extension on top of the architectural
interface.  A long message travels as a train of ordinary five-word
segments sharing a type; every segment except the last is marked as having
a continuation.  The continuation mark rides in the fabric envelope
(:class:`Segment`), the same place the PIN tag lives, mirroring a wider
flit format in real hardware.

The module also provides :class:`StreamSender` / :class:`StreamReceiver`,
a minimal systolic-style stream built from scrolling windows, exercising the
"infinite length systolic streams" case the paper mentions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional, Sequence

from repro.errors import MessageFormatError, QueueUnderflowError
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import MESSAGE_WORDS, Message, pack_destination


@dataclass(frozen=True)
class Segment:
    """One five-word segment of a (possibly longer) message.

    ``continued`` marks that at least one more segment of the same logical
    message follows.  A plain architectural message is a single segment with
    ``continued=False``.
    """

    message: Message
    continued: bool = False


class ScrollingSender:
    """SCROLL-OUT support: compose a message longer than five words.

    Usage mirrors the hardware model: software fills ``o0..o4`` through the
    underlying interface and calls :meth:`scroll_out` for every full window,
    then :meth:`send` for the final (possibly partial) window.
    """

    def __init__(self, interface: NetworkInterface) -> None:
        self.interface = interface
        self._open_segments: List[Message] = []

    @property
    def message_open(self) -> bool:
        """Whether a multi-segment message is being composed."""
        return bool(self._open_segments)

    def scroll_out(self, mtype: int) -> SendResult:
        """Transmit the current window and keep the message open.

        A full output queue is handled as SEND handles it
        (:meth:`NetworkInterface.stall_send`).
        """
        interface = self.interface
        if interface.output_queue.is_full:
            return interface.stall_send(mtype)
        self._open_segments.append(interface.compose(mtype))
        return SendResult.SENT

    def send(self, mtype: int) -> SendResult:
        """Transmit the final window, closing the message."""
        result = self.interface.send(mtype)
        if result is SendResult.SENT:
            self._open_segments.clear()
        return result

    def take_open_segments(self) -> List[Segment]:
        """Segments emitted by scroll-outs since the last close.

        The fabric collects these (each marked continued) ahead of the
        closing segment that :meth:`send` pushed onto the output queue.
        """
        segments = [Segment(m, continued=True) for m in self._open_segments]
        self._open_segments.clear()
        return segments


class ScrollingReceiver:
    """SCROLL-IN support: walk a long message window by window."""

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._position = 0

    def accept(self, segment: Segment) -> None:
        """Buffer one arrived segment of the current long message."""
        self._segments.append(segment)

    @property
    def window(self) -> Optional[Message]:
        """The five words currently visible in the input registers."""
        if self._position < len(self._segments):
            return self._segments[self._position].message
        return None

    @property
    def more_to_scroll(self) -> bool:
        """Whether SCROLL-IN would expose another window."""
        if self._position >= len(self._segments):
            return False
        return self._segments[self._position].continued

    def scroll_in(self) -> Message:
        """Advance the window by five words within the same message."""
        if not self.more_to_scroll:
            raise QueueUnderflowError("SCROLL-IN past the end of the message")
        self._position += 1
        window = self.window
        if window is None:
            raise QueueUnderflowError("SCROLL-IN found no buffered segment")
        return window

    def finish(self) -> List[Message]:
        """Close out the message, returning all its segments in order."""
        messages = [s.message for s in self._segments]
        self._segments.clear()
        self._position = 0
        return messages


def segment_words(
    mtype: int,
    destination: int,
    words: Sequence[int],
) -> List[Segment]:
    """Split an arbitrary word sequence into a train of segments.

    The first segment's ``m0`` carries the destination (as every message's
    must); subsequent segments repeat the destination so each five-word
    unit routes independently, exactly as a scrolled hardware message would.
    Word counts that are not a multiple of four (first segment) / five are
    zero-padded in the final segment.
    """
    if not words:
        raise MessageFormatError("a long message needs at least one word")
    segments: List[Segment] = []
    remaining = list(words)
    first = True
    while remaining:
        if first:
            payload, remaining = remaining[:4], remaining[4:]
            message = Message.build(mtype, destination, payload)
            first = False
        else:
            chunk, remaining = remaining[:4], remaining[4:]
            message = Message.build(mtype, destination, chunk)
        segments.append(Segment(message, continued=bool(remaining)))
    return segments


def reassemble(segments: Iterable[Segment]) -> List[int]:
    """Recover the word sequence from a train of segments (inverse helper)."""
    words: List[int] = []
    for segment in segments:
        words.extend(segment.message.words[1:])
    return words


@dataclass
class StreamSender:
    """A one-way systolic-style stream to a fixed destination.

    Any :meth:`put` implicitly transmits, like the iWARP gate register the
    paper surveys — but built from the message-passing interface's
    scrolling windows rather than a dedicated connection.
    """

    interface: NetworkInterface
    destination: int
    mtype: int
    _pending: List[int] = field(default_factory=list)

    def put(self, value: int) -> None:
        """Write one word into the stream."""
        self._pending.append(value)
        if len(self._pending) == MESSAGE_WORDS - 1:
            self.flush()

    def flush(self) -> None:
        """Transmit any buffered words as one segment."""
        if not self._pending:
            return
        for index, value in enumerate(self._pending, start=1):
            self.interface.write_output(index, value)
        for index in range(len(self._pending) + 1, MESSAGE_WORDS):
            self.interface.write_output(index, 0)
        self.interface.write_output(
            0, pack_destination(self.destination, len(self._pending))
        )
        self.interface.send(self.mtype)
        self._pending.clear()


@dataclass
class StreamReceiver:
    """The receiving end of a :class:`StreamSender` stream."""

    interface: NetworkInterface
    mtype: int
    # Stream words drain from the front; a deque keeps get() O(1).
    _buffer: Deque[int] = field(default_factory=deque)

    def poll(self) -> None:
        """Drain any arrived stream segments into the local buffer."""
        while self.interface.msg_valid:
            message = self.interface.current_message
            assert message is not None
            if message.mtype != self.mtype:
                break
            count = message.m0_low
            self._buffer.extend(message.words[1 : 1 + count])
            self.interface.next()

    def get(self) -> Optional[int]:
        """Read the next stream word, or None when the stream is dry."""
        if not self._buffer:
            self.poll()
        if self._buffer:
            return self._buffer.popleft()
        return None
