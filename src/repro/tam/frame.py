"""Frame references: the global name of a TAM activation.

The activation itself is a flat list built by generated code
(:mod:`repro.tam.codegen`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FrameRef:
    """A global activation name: (node, local frame id).

    This is the value the architecture would carry in a message's FP word;
    the TAM runtime keeps it symbolic.
    """

    node: int
    frame_id: int
