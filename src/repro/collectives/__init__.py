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

from repro.collectives.baseline import run_proc_collective
from repro.collectives.costs import price_run
from repro.collectives.engine import (
    CollectiveRun,
    NicHandlerEngine,
    run_nic_collective,
)
from repro.collectives.programs import (
    COLLECTIVES,
    DOWN_IP,
    OPS,
    PROGRAMS,
    UP_IP,
    HandlerContext,
    expected_result,
)
from repro.collectives.tree import CombiningTree

__all__ = [
    "COLLECTIVES",
    "CollectiveRun",
    "CombiningTree",
    "DOWN_IP",
    "HandlerContext",
    "NicHandlerEngine",
    "OPS",
    "PROGRAMS",
    "UP_IP",
    "expected_result",
    "price_run",
    "run_nic_collective",
    "run_proc_collective",
]
