"""One deterministic simulation kernel for every clocked domain.

The repro interleaves three clocked domains — processor kernels, the
NI's queues/RTL, and the routing fabric — and before this package each
driver hand-rolled its own quiescence loop.  :mod:`repro.sim` is the
single engine they all run on now:

* :class:`~repro.sim.kernel.SimKernel` — the cycle engine: component
  registration with stable service ordering, wake/sleep idle-skip
  scheduling (the flag-array trick of the TAM scheduler, generalized),
  two stop conditions (quiescence, bounded by ``max_cycles`` with a
  diagnostic state snapshot, or an exact cycle count), and one run
  loop.
* :class:`~repro.sim.component.SimComponent` — the component contract a
  clocked object implements to be driven by the kernel.
* :mod:`repro.sim.sweep` — turn-based service for the TAM runtime: its
  service order and :class:`~repro.sim.sweep.ActiveSweep`, the flag
  arrays the TAM's one loop serves in that order.

Every driver builds its machine the same way: it registers its
components, the fabric itself among them, on one kernel and calls
``run()`` or ``run(cycles=N)``.  They are ``api.cluster.Cluster.run``,
the NIC collectives engine, the flow-control hot-spot, the synthetic
traffic sweep, the multi-tenant study and ``network.fabric.Fabric
.run_until_quiescent``; the TAM loop in ``tam.runtime`` is turn-based
and runs on :mod:`repro.sim.sweep`.
"""
