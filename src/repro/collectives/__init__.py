"""NIC-offloaded collectives over the tightly-coupled interface.

Barrier, broadcast, reduce, and allreduce expressed as *handler
programs* dispatched through the ``MsgIp`` path — each step combines,
updates state, and forwards entirely at the interface, sPIN-style —
plus the processor-driven baseline that runs the identical steps as
node inlets under the cluster's service loop.

* :mod:`repro.collectives.tree` — the combining-tree structure;
* :mod:`repro.collectives.programs` — the shared step functions;
* :mod:`repro.collectives.engine` — the NIC-side execution engine;
* :mod:`repro.collectives.baseline` — the processor-side baseline;
* :mod:`repro.collectives.costs` — post-hoc cycle pricing per cost model.
"""
