"""One deterministic simulation kernel for every clocked domain.

The repro interleaves three clocked domains — processor kernels, the
NI's queues/RTL, and the routing fabric — and before this package each
driver hand-rolled its own quiescence loop.  :mod:`repro.sim` is the
single engine they all run on now:

* :class:`~repro.sim.kernel.SimKernel` — the cycle engine: component
  registration with stable service ordering, wake/sleep idle-skip
  scheduling (the flag-array trick of the TAM scheduler, generalized),
  unified stop conditions (quiescence, max-cycles with a diagnostic
  state snapshot, custom predicates), and one run loop.
* :class:`~repro.sim.component.SimComponent` — the component contract a
  clocked object implements to be driven by the kernel.
* :mod:`repro.sim.sweep` — turn-based service for the TAM runtime:
  :class:`~repro.sim.sweep.ReferenceSweep`, the reference backend's
  scheduler, and :class:`~repro.sim.sweep.ActiveSweep`, the flag arrays
  the codegen backend's one loop serves in the same order.

Drivers rebased on this package: ``api.cluster.Cluster.run``, the
flow-control hot-spot experiment, ``network.fabric.Fabric
.run_until_quiescent``, ``nic.link.Link.run_until_idle``, and both TAM
schedulers in ``tam.runtime``.
"""

from repro.sim.component import SimComponent
from repro.sim.kernel import SimHandle, SimKernel, SimResult
from repro.sim.sweep import ActiveSweep, ReferenceSweep

__all__ = [
    "ActiveSweep",
    "ReferenceSweep",
    "SimComponent",
    "SimHandle",
    "SimKernel",
    "SimResult",
]
