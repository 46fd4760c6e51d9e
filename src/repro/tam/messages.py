"""TAM inter-frame message types.

Split out of :mod:`repro.tam.runtime` so both the reference interpreter
and the generated code of the codegen backend (:mod:`repro.tam.codegen`)
can construct messages without an import cycle.  A message is what the paper's network
would carry between nodes: argument Sends, frame/I-structure allocation
requests, presence-bit reads and writes, and plain remote memory
accesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from repro.tam.frame import FrameRef

#: Bits of a frame pointer reserved for the local frame id when a
#: (node, frame) pair is packed into one word for deferred-read lists.
FRAME_ID_BITS = 22


@dataclass(frozen=True)
class IStructRef:
    """A global I-structure name: (node, local descriptor)."""

    node: int
    descriptor: int


class MsgKind(enum.Enum):
    SEND = "send"
    FALLOC = "falloc"
    IALLOC = "ialloc"
    PREAD = "pread"
    PWRITE = "pwrite"
    READ = "read"
    WRITE = "write"
    REPLY = "reply"  # a read / pread-full / forwarded value (costed as
    # part of the requesting operation, received as a Send)


class TamMessage(NamedTuple):
    """One in-flight message.

    A NamedTuple rather than a dataclass: the interpreter constructs one
    of these for every cross-frame interaction (hundreds of thousands per
    run), and tuple construction is several times cheaper than a frozen
    dataclass ``__init__``.
    """

    kind: MsgKind
    node: int
    inlet: int = 0
    frame_id: int = 0
    values: Tuple = ()
    codeblock: str = ""
    reply_to: Optional[Tuple[FrameRef, int]] = None
    descriptor: int = 0
    index: int = 0
    address: int = 0
