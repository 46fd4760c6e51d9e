"""TAM inter-frame message types.

Split out of :mod:`repro.tam.runtime` so the machine and its generated
code (:mod:`repro.tam.codegen`) can construct messages without an import
cycle.  A message is what the paper's network would carry between
nodes: argument Sends, frame/I-structure allocation requests,
presence-bit reads and writes, and plain remote memory accesses.

Every message is a tuple with its kind at ``[0]`` and its target node at
``[1]``, which is all an observer reads.  Four shapes exist:
:class:`TamMessage`; the SEND tuple generated code builds, ``(kind,
node, inlet, frame_id, values)``, which is :class:`TamMessage`'s layout
without its defaults; the PREAD tuple generated code builds; and the
reply the machine builds for a PREAD that finds its element full, or for
a deferred reader a PWRITE satisfies, whose kind is named ``REPLY``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from repro.tam.frame import FrameRef


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
