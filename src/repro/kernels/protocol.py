"""The software message-protocol conventions behind the Table 1 kernels.

The paper fixes the architecture (five words, 4-bit type, REPLY mode
substituting words 1 and 2) but leaves the message-level protocol to
software.  These are the conventions this reproduction uses everywhere —
the handler kernels, the behavioural node handlers, and the TAM runtime all
import them from here:

**Message layouts** (word 0 always carries the destination in its high
bits):

===========  ===============================================================
type         layout
===========  ===============================================================
Send (0)     m0 = FP (global), m1 = IP, m2/m3 = 0..2 data words
Read (2)     m0 = address (global), m1 = reply FP, m2 = reply IP
Write (3)    m0 = address (global), m1 = value
PRead (4)    m0 = array descriptor (global), m1 = reply FP, m2 = reply IP,
             m3 = element index
PWrite (5)   m0 = array descriptor (global), m1 = element index, m2 = value
Escape (15)  m4 = the rare kind's 32-bit id; m1..m3 are the kind's own
===========  ===============================================================

Words 1 and 2 of every *request carrying a continuation* hold the reply FP
and IP so the hardware REPLY mode (i1 → o0, i2 → o1) composes the reply
head for free; PWrite keeps its value in word 2 so the hardware FORWARD
mode (i2..i4 → o2..o4) carries it to deferred readers for free.  A remote
read's reply is an ordinary Send: m0 = FP, m1 = IP, m2 = value.

**I-structure layout**: an array element is a ``[tag, value]`` pair (8
bytes).  ``tag = 0`` means empty, ``tag = 1`` full, and any other value is
the address of the first node of the deferred-reader list — presence state
and list head share the word, as on Monsoon.  A deferred node is
``[FP, IP, next]`` (12 bytes); nodes come from a free list whose head
pointer lives in memory at the address held in the pinned ``heap``
register (word 0 links free nodes).

**Basic-architecture ids**: without the 4-bit type optimization every
message carries a 32-bit identifier in word 4.  Ids are small constants:
handler address = ``IpBase + (id << 4)``.  The Send id is pinned in a
register by software convention (Sends dominate the mix); other ids are
materialised by one ``loadimm`` at send time.
"""

from __future__ import annotations

from repro.nic.messages import LAST_USER_TYPE, TYPE_MSG_IP

# 4-bit types (optimized architecture).
TYPE_SEND = TYPE_MSG_IP  # 0: handler IP travels in word 1
TYPE_READ = 2
TYPE_WRITE = 3
TYPE_PREAD = 4
TYPE_PWRITE = 5
TYPE_ESCAPE = LAST_USER_TYPE  # 15: rare kinds, real id in word 4 (Section 2.2.1)

# 32-bit ids (basic architecture).  Small indices into the handler table.
ID_SEND = 1
ID_READ = 2
ID_WRITE = 3
ID_PREAD = 4
ID_PWRITE = 5

BASIC_HANDLER_STRIDE_SHIFT = 4
"""Basic dispatch: handler address = IpBase + (id << 4)."""

# I-structure element layout.
TAG_OFFSET = 0
VALUE_OFFSET = 4
ELEMENT_BYTES = 8
ELEMENT_SHIFT = 3  # index -> byte offset

TAG_EMPTY = 0
TAG_FULL = 1
# Any tag >= NODE_AREA_MIN is a deferred-list head pointer; the harnesses
# place node arenas well above this.
NODE_AREA_MIN = 8

# Deferred-reader node layout: [FP, IP, next]; word 0 doubles as the free
# -list link while the node is free.
NODE_FP_OFFSET = 0
NODE_IP_OFFSET = 4
NODE_NEXT_OFFSET = 8
NODE_BYTES = 12

# Frame conventions for Send-message data words (the invoked thread stores
# message words at fixed offsets from the FP carried by the message).
FRAME_WORD0_OFFSET = 0
FRAME_WORD1_OFFSET = 4

# Reply IPs are 16-bit code addresses materialised by a single loadimm
# (paper kernels treat handler IPs as one-instruction constants).
REPLY_IP = 0x4240
