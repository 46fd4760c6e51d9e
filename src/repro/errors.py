"""Exception hierarchy shared across the library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the layer that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class BitfieldError(ReproError):
    """A bit-field layout or value is invalid (overlap, overflow, unknown field)."""


class AssemblyError(ReproError):
    """The mini-assembler rejected a handler sequence."""


class MachineError(ReproError):
    """The behavioural RISC machine hit an illegal state (bad register, bad jump)."""


class MessageFormatError(ReproError):
    """A message violates the five-word / 4-bit-type architecture format."""


class ReservedTypeError(MessageFormatError):
    """Software tried to SEND a type-1 (exception) message.

    Section 2.2.2 reserves message type 1 for the hardware's exception
    dispatch path; the send path must reject it rather than silently
    dispatching the receiver to its exception slot."""


class QueueOverflowError(ReproError):
    """A bounded message queue overflowed and CONTROL selected the exception policy."""


class QueueUnderflowError(ReproError):
    """A pop was issued against an empty message queue."""


class ProtectionError(ReproError):
    """A protection violation: privileged message mishandled or PIN mismatch."""


class NetworkError(ReproError):
    """The interconnection fabric was misconfigured or misused."""


class RoutingError(NetworkError):
    """No route exists between two nodes, or a hop left the topology."""


class IStructureError(ReproError):
    """An I-structure invariant was violated (e.g. double write to a full slot)."""


class TamError(ReproError):
    """The Threaded Abstract Machine hit an illegal state."""


class FrameError(TamError):
    """A TAM frame slot or sync counter was misused."""


class DeadlockError(TamError):
    """TAM execution stopped with live work that can never be enabled."""


class CollectiveError(ReproError):
    """A collective operation was misconfigured or violated its protocol
    (unknown operation, duplicate participation, fragment mismatch)."""


class EvaluationError(ReproError):
    """An evaluation harness was asked for an unknown experiment or model."""


class ReconciliationError(ReproError):
    """Two independent accountings of the same run disagree (e.g. a
    message's lineage spans leave a gap or overlap in its lifetime)."""


class SimulationError(ReproError):
    """The simulation kernel was misconfigured or misused."""


class SimStallError(SimulationError):
    """A kernel run exceeded its cycle bound; the message carries the
    diagnostic state snapshot of every registered component."""
